//! Golden-file tests for `EXPLAIN ANALYZE` ([`relviz::exec::stats`]):
//! the per-operator actuals (row counts, selectivities, join build/probe
//! sizes, cache hits) and the per-round fixpoint delta tables are
//! deterministic for a fixed database and thread count, so they are
//! pinned against committed goldens. Only genuinely volatile tokens —
//! wall-clock timings, per-worker utilization, and (in parallel runs)
//! cache attribution, which races between workers sharing a scan cache —
//! are normalized away.
//!
//! Regenerate with `UPDATE_GOLDENS=1 cargo test --test analyze_golden`.

use std::path::PathBuf;

use relviz::core::suite::SUITE;
use relviz::exec::{eval_datalog_analyzed_with, run_sql_analyzed_with, Engine, ExecOptions};
use relviz::model::catalog::sailors_sample;
use relviz::model::generate::generate_binary_pair;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens")
}

fn check_or_update(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var("UPDATE_GOLDENS").is_ok() {
        std::fs::create_dir_all(golden_dir()).expect("can create goldens dir");
        std::fs::write(&path, actual).expect("can write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}\nrun UPDATE_GOLDENS=1 cargo test --test analyze_golden",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "golden mismatch for {name} — if intentional, rerun with UPDATE_GOLDENS=1"
    );
}

/// Replaces the value of a volatile `key=value` token with `key=<>`,
/// keeping any trailing `)` characters so the tree stays well-formed.
fn scrub(token: &str) -> String {
    let key = token.split('=').next().unwrap_or(token);
    let trailing: String = token.chars().rev().take_while(|&c| c == ')').collect();
    format!("{key}=<>{trailing}")
}

/// Normalizes an `EXPLAIN ANALYZE` rendering: `time=`, `busy=` and
/// `jobs=` are always volatile; `hits=`/`misses=` only under a parallel
/// engine (workers race to populate the shared scan cache, so which
/// access is the miss is timing-dependent — the *totals* stay exact in
/// serial runs and are pinned there).
fn normalize(text: &str, parallel: bool) -> String {
    let mut out = String::new();
    for line in text.lines() {
        let body_at = line.len() - line.trim_start_matches(' ').len();
        let (indent, body) = line.split_at(body_at);
        out.push_str(indent);
        let cooked: Vec<String> = body
            .split(' ')
            .map(|tok| {
                let volatile = tok.starts_with("time=")
                    || tok.starts_with("busy=")
                    || tok.starts_with("jobs=")
                    || (parallel && (tok.starts_with("hits=") || tok.starts_with("misses=")));
                if volatile {
                    scrub(tok)
                } else {
                    tok.to_string()
                }
            })
            .collect();
        out.push_str(&cooked.join(" "));
        out.push('\n');
    }
    out
}

/// The two worker widths every golden section is pinned under. The
/// width is explicit (not `0`, auto) so `RELVIZ_THREADS` in the
/// environment — ci.sh reruns the suite with it set — cannot change
/// the rendering.
const WIDTHS: [(usize, &str, bool); 2] = [(1, "serial", false), (4, "parallel", true)];

fn width(threads: usize) -> ExecOptions {
    ExecOptions { threads, ..ExecOptions::default() }
}

#[test]
fn analyze_goldens_for_suite() {
    let db = sailors_sample();
    let mut all = String::new();
    for q in SUITE {
        for (threads, tag, parallel) in WIDTHS {
            let (_, report) = run_sql_analyzed_with(Engine::Indexed, q.sql, &db, width(threads))
                .unwrap_or_else(|e| panic!("{} ({tag}): {e}", q.id));
            assert_eq!(
                report.plan_nodes,
                report.operators.len(),
                "{} ({tag}): operator rows must mirror the plan",
                q.id
            );
            all.push_str(&format!("== {} {tag} ==\n", q.id));
            all.push_str(&normalize(&report.text, parallel));
        }
    }
    check_or_update("analyze-suite.txt", &all);
}

#[test]
fn analyze_goldens_for_recursive_datalog() {
    let db = generate_binary_pair(42, 24, 10);
    let programs = [
        (
            "tc",
            "tc(X, Y) :- R(X, Y).\n\
             tc(X, Z) :- tc(X, Y), R(Y, Z).",
        ),
        (
            "sg",
            "sg(X, Y) :- R(A, X), R(A, Y).\n\
             sg(X, Y) :- R(A, X), sg(A, B), R(B, Y).",
        ),
    ];
    let mut all = String::new();
    for (id, src) in programs {
        let prog = relviz::datalog::parse::parse_program(src).unwrap();
        for (threads, tag, parallel) in WIDTHS {
            let (rel, report) =
                eval_datalog_analyzed_with(Engine::Indexed, &prog, &db, width(threads))
                .unwrap_or_else(|e| panic!("{id} ({tag}): {e}"));
            assert!(!rel.is_empty(), "{id} ({tag}): fixpoint must derive facts");
            assert!(
                report.rounds.iter().any(|r| r.round > 0),
                "{id} ({tag}): a recursive program must iterate past round 0"
            );
            all.push_str(&format!("== {id} {tag} ==\n"));
            all.push_str(&normalize(&report.text, parallel));
        }
    }
    check_or_update("analyze-datalog.txt", &all);
}
