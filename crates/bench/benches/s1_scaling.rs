//! S1 — scaling sweeps:
//! * evaluator scaling with database size (RA vs SQL vs Datalog vs TRC on
//!   Q2) — the shape to verify: all polynomial, calculi with larger
//!   constants;
//! * layout scaling with query size (chain joins of growing width);
//! * the RA optimizer's effect (σ-over-× vs θ-join plans).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use relviz_core::suite::by_id;
use relviz_exec::OptConfig;
use relviz_layout::layered::{layout, GraphSpec, LayeredOptions};
use relviz_model::generate::{generate_sailors, GenConfig};

fn bench_eval_scaling(c: &mut Criterion) {
    let q2 = by_id("Q2").expect("suite query");
    let ra = relviz_ra::parse::parse_ra(q2.ra).unwrap();
    let trc = relviz_rc::trc_parse::parse_trc(q2.trc).unwrap();
    let dl = relviz_datalog::parse::parse_program(q2.datalog).unwrap();

    let mut g = c.benchmark_group("s1_eval_scaling");
    g.sample_size(10);
    for n in [50usize, 200, 800] {
        let cfg = GenConfig::scaled(n);
        let db = generate_sailors(&cfg);
        g.bench_with_input(BenchmarkId::new("sql_q2", n), &db, |b, db| {
            b.iter(|| relviz_sql::eval::run_sql(black_box(q2.sql), db).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("ra_q2", n), &db, |b, db| {
            b.iter(|| relviz_ra::eval::eval(black_box(&ra), db).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("datalog_q2", n), &db, |b, db| {
            b.iter(|| relviz_datalog::eval::eval_program(black_box(&dl), db).unwrap())
        });
        if n <= 200 {
            // The naive TRC enumerator is cubic here; keep sizes sane.
            g.bench_with_input(BenchmarkId::new("trc_q2", n), &db, |b, db| {
                b.iter(|| relviz_rc::trc_eval::eval_trc(black_box(&trc), db).unwrap())
            });
        }
        // The physical engine on both forms (plans built once per size;
        // planning depends only on the catalog).
        let ra_plan = relviz_exec::plan_ra_with(&ra, &db, OptConfig::optimized()).unwrap();
        g.bench_with_input(BenchmarkId::new("exec_ra_q2", n), &db, |b, db| {
            b.iter(|| relviz_exec::execute(black_box(&ra_plan), db).unwrap())
        });
        let trc_plan = relviz_exec::plan_trc_with(&trc, &db, OptConfig::optimized()).unwrap();
        g.bench_with_input(BenchmarkId::new("exec_trc_q2", n), &db, |b, db| {
            b.iter(|| relviz_exec::execute(black_box(&trc_plan), db).unwrap())
        });
    }
    g.finish();
}

fn bench_optimizer_effect(c: &mut Criterion) {
    // σ-over-product vs the optimizer's θ-join on a generated database,
    // on the reference evaluator and on the physical engine (whose
    // planner extracts hash keys from either form by itself).
    let naive = relviz_ra::parse::parse_ra(
        "Project[sname](Select[s_sid = sid AND bid = 102](Product(\
         Rename[sid -> s_sid](Sailor), Reserves)))",
    )
    .unwrap();
    let optimized = relviz_ra::rewrite::optimize(&naive);
    let db = generate_sailors(&GenConfig::scaled(400));

    let mut g = c.benchmark_group("s1_optimizer");
    g.sample_size(10);
    g.bench_function("naive_sigma_product", |b| {
        b.iter(|| relviz_ra::eval::eval(black_box(&naive), &db).unwrap())
    });
    g.bench_function("optimized_theta_join", |b| {
        b.iter(|| relviz_ra::eval::eval(black_box(&optimized), &db).unwrap())
    });
    let naive_plan = relviz_exec::plan_ra_with(&naive, &db, OptConfig::optimized()).unwrap();
    g.bench_function("exec_from_naive", |b| {
        b.iter(|| relviz_exec::execute(black_box(&naive_plan), &db).unwrap())
    });
    g.finish();
}

fn bench_layout_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("s1_layout_scaling");
    g.sample_size(10);
    for n in [10usize, 40, 160] {
        // A layered DAG shaped like a wide operator tree.
        let mut spec = GraphSpec::default();
        for _ in 0..n {
            spec.add_node(80.0, 30.0);
        }
        for i in 1..n {
            spec.add_edge((i - 1) / 2, i);
        }
        g.bench_with_input(BenchmarkId::new("sugiyama", n), &spec, |b, spec| {
            b.iter(|| layout(black_box(spec), LayeredOptions::default()))
        });
    }
    g.finish();
}

/// Ablation: the barycenter crossing-minimization sweeps. Measures both
/// cost (layout time with 0 vs 4 sweeps) and benefit (edge crossings
/// remaining) on a tangled bipartite graph — the quality/latency
/// trade-off behind the layout defaults in DESIGN.md.
fn bench_sweep_ablation(c: &mut Criterion) {
    use relviz_layout::layered::count_crossings;
    let mut g = c.benchmark_group("s1_sweep_ablation");
    g.sample_size(10);
    for width in [8usize, 24, 48] {
        let mut spec = GraphSpec::default();
        for _ in 0..2 * width {
            spec.add_node(40.0, 18.0);
        }
        for i in 0..width {
            // Reversal wiring plus a shifted second harness: heavy tangling.
            spec.add_edge(i, width + (width - 1 - i));
            spec.add_edge(i, width + (i + width / 2) % width);
        }
        for sweeps in [0usize, 4] {
            g.bench_with_input(
                BenchmarkId::new(format!("sweeps{sweeps}"), width),
                &spec,
                |b, spec| {
                    b.iter(|| {
                        layout(black_box(spec), LayeredOptions { sweeps, ..Default::default() })
                    })
                },
            );
        }
        let untangled = layout(&spec, LayeredOptions::default());
        let raw = layout(&spec, LayeredOptions { sweeps: 0, ..Default::default() });
        println!(
            "  width {width}: crossings {} (no sweeps) → {} (4 sweeps)",
            count_crossings(&spec, &raw),
            count_crossings(&spec, &untangled)
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_eval_scaling,
    bench_optimizer_effect,
    bench_layout_scaling,
    bench_sweep_ablation
);
criterion_main!(benches);
