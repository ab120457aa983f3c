//! Determinism pinning for the parallel engine: scheduling must
//! **never** leak into results.
//!
//! Every suite query (TRC and Datalog forms), the canonical recursive
//! fixpoints (TC, SG), and a partition-sized join workload run **16
//! times each** across varying thread counts (1, 2, 4, 8 — cycled, so
//! each count runs four times), and every run's `model::text` rendering
//! must be **byte-identical** to the serial engine's. The sorted
//! set-semantics `Relation` is the determinism anchor: partitioned
//! probes concatenate in range order, fixpoint rounds merge at a
//! barrier in rule order, and the final relation orders by the total
//! order of values — so not only the set but the bytes must match, on
//! every schedule the OS happens to produce.

use relviz::exec::{self, Engine, ExecOptions};
use relviz::model::catalog::sailors_sample;
use relviz::model::generate::{generate_binary_pair, generate_sailors, GenConfig};
use relviz::model::{text, Database, Relation};

/// The 16 runs: each thread count four times, interleaved so
/// consecutive runs change the schedule shape.
const THREAD_CYCLE: [usize; 4] = [1, 2, 4, 8];
const RUNS: usize = 16;

/// The physical engine at `threads` workers (1 is the serial path).
fn width(threads: usize) -> ExecOptions {
    ExecOptions { threads, ..ExecOptions::default() }
}

/// Renders a result through `model::text` — the byte-level anchor.
fn render(name: &str, rel: &Relation) -> String {
    let mut db = Database::new();
    db.set(name, rel.clone());
    text::dump_database(&db)
}

/// Runs `eval` 16× across the thread cycle, asserting every rendering
/// equals `baseline` byte for byte.
fn pin(what: &str, baseline: &str, eval: impl Fn(usize) -> String) {
    for run in 0..RUNS {
        let threads = THREAD_CYCLE[run % THREAD_CYCLE.len()];
        let got = eval(threads);
        assert_eq!(
            got, baseline,
            "{what}: run {run} at {threads} threads diverged from the serial rendering"
        );
    }
}

#[test]
fn suite_queries_render_identically_on_every_schedule() {
    let db = sailors_sample();
    for q in relviz::core::suite::SUITE {
        let trc = relviz::rc::trc_parse::parse_trc(q.trc).unwrap();
        let serial = render(
            "out",
            &exec::eval_trc_with(Engine::Indexed, &trc, &db, width(1)).unwrap(),
        );
        pin(&format!("{} (trc)", q.id), &serial, |t| {
            render(
                "out",
                &exec::eval_trc_with(Engine::Indexed, &trc, &db, width(t)).unwrap(),
            )
        });

        let dl = relviz::datalog::parse::parse_program(q.datalog).unwrap();
        let serial = render(
            "out",
            &exec::eval_datalog_with(Engine::Indexed, &dl, &db, width(1)).unwrap(),
        );
        pin(&format!("{} (datalog)", q.id), &serial, |t| {
            render(
                "out",
                &exec::eval_datalog_with(Engine::Indexed, &dl, &db, width(t)).unwrap(),
            )
        });
    }
}

/// Recursive fixpoints: every IDB predicate of TC and SG, 16× —
/// parallel round-0 rules, delta rounds, and the parallel final sort
/// all feed into the pinned bytes.
#[test]
fn recursive_fixpoints_render_identically_on_every_schedule() {
    for (what, src, db) in [
        (
            "tc",
            "tc(X, Y) :- R(X, Y).\n\
             tc(X, Z) :- tc(X, Y), R(Y, Z).",
            generate_binary_pair(0xD1A6, 400, 200),
        ),
        (
            "sg",
            "% query: sg\n\
             sg(X, X) :- R(X, Y).\n\
             sg(X, X) :- R(Y, X).\n\
             sg(X, Y) :- R(XP, X), sg(XP, YP), R(YP, Y).",
            generate_binary_pair(0x56AA, 200, 100),
        ),
        (
            // Independent strata (tc ∥ node at level 0) + negation above.
            "unreached",
            "% query: unreached\n\
             tc(X, Y) :- R(X, Y).\n\
             tc(X, Z) :- tc(X, Y), R(Y, Z).\n\
             node(X) :- R(X, Y).\n\
             node(Y) :- R(X, Y).\n\
             unreached(X, Y) :- node(X), node(Y), not tc(X, Y).",
            generate_binary_pair(0x7E57, 60, 40),
        ),
    ] {
        let prog = relviz::datalog::parse::parse_program(src).unwrap();
        let all = exec::eval_datalog_all_with(Engine::Indexed, &prog, &db, width(1)).unwrap();
        let mut serial_db = Database::new();
        let mut names: Vec<_> = all.keys().cloned().collect();
        names.sort();
        for n in &names {
            serial_db.set(n.clone(), all[n].clone());
        }
        let serial = text::dump_database(&serial_db);
        pin(what, &serial, |t| {
            let all = exec::eval_datalog_all_with(Engine::Indexed, &prog, &db, width(t)).unwrap();
            let mut pdb = Database::new();
            for n in &names {
                pdb.set(n.clone(), all[n].clone());
            }
            text::dump_database(&pdb)
        });
    }
}

/// A workload sized past the partition thresholds (build ≥ 1024 rows,
/// probe ≥ 1024 rows, output ≥ 1024 rows), so the 16 runs genuinely
/// take the partitioned build/probe and parallel-sort paths.
#[test]
fn partitioned_joins_render_identically_on_every_schedule() {
    let db = generate_sailors(&GenConfig {
        seed: 0xACE,
        sailors: 1500,
        boats: 40,
        reservations: 2200,
    });
    let e = relviz::ra::parse::parse_ra(
        "Project[sname, bid](Select[s_sid = sid](Product(\
         Rename[sid -> s_sid](Sailor), Reserves)))",
    )
    .unwrap();
    let serial = render("out", &exec::eval_ra_with(Engine::Indexed, &e, &db, width(1)).unwrap());
    pin("partitioned join", &serial, |t| {
        render("out", &exec::eval_ra_with(Engine::Indexed, &e, &db, width(t)).unwrap())
    });
}
