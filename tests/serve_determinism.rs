//! Concurrent-determinism suite for `relviz serve`.
//!
//! The server's contract is that a `result` frame's `body` is
//! **byte-identical** to what one-shot execution (`Engine::Indexed`)
//! prints for the same query on the same database — regardless of how
//! many clients are connected, which physical engine a request picks,
//! and whether catalog mutations bump the database generation
//! mid-stream (each response carries the generation its snapshot came
//! from, so every byte is attributable to exactly one database state).

use std::sync::Arc;
use std::thread;

use relviz::core::suite::SUITE;
use relviz::exec::{eval_datalog_with, eval_trc_with, run_sql_with, Engine, ExecOptions};
use relviz::model::catalog::sailors_sample;
use relviz::model::text::parse_database;
use relviz::model::Database;
use relviz::serve::{escape, Json, Server, ServerConfig};

fn server_with_default() -> Arc<Server> {
    let server = Server::new(ServerConfig { threads: 2, ..ServerConfig::default() });
    server.catalog().load("default", sailors_sample());
    Arc::new(server)
}

fn query_frame(id: u64, db: &str, lang: &str, engine: &str, text: &str) -> String {
    format!(
        "{{\"type\":\"query\",\"id\":{id},\"db\":\"{db}\",\"lang\":\"{lang}\",\
         \"engine\":\"{engine}\",\"query\":\"{}\"}}",
        escape(text)
    )
}

/// Sends one frame expecting exactly one `result` frame back.
fn result_of(server: &Server, frame: &str) -> Json {
    let frames = server.handle_line(frame);
    assert_eq!(frames.len(), 1, "expected one frame for {frame}, got {frames:?}");
    let resp = Json::parse(&frames[0]).expect("response parses");
    assert_eq!(
        resp.get("type").and_then(Json::as_str),
        Some("result"),
        "expected a result frame for {frame}, got {frames:?}"
    );
    resp
}

fn body_of(resp: &Json) -> String {
    resp.get("body").and_then(Json::as_str).expect("result has a body").to_string()
}

/// One-shot `Engine::Indexed` renderings of every suite query in the
/// three languages the server evaluates.
fn one_shot_suite(db: &Database) -> Vec<(&'static str, &'static str, String)> {
    let cfg = ExecOptions::default();
    let mut expected = Vec::new();
    for q in SUITE {
        let rel = run_sql_with(Engine::Indexed, q.sql, db, cfg).expect(q.id);
        expected.push(("sql", q.sql, format!("{rel}")));
        let trc = relviz::rc::trc_parse::parse_trc(q.trc).expect(q.id);
        let rel = eval_trc_with(Engine::Indexed, &trc, db, cfg).expect(q.id);
        expected.push(("trc", q.trc, format!("{rel}")));
        let prog = relviz::datalog::parse::parse_program(q.datalog).expect(q.id);
        let rel = eval_datalog_with(Engine::Indexed, &prog, db, cfg).expect(q.id);
        expected.push(("datalog", q.datalog, format!("{rel}")));
    }
    expected
}

#[test]
fn concurrent_clients_are_byte_identical_to_one_shot() {
    let server = server_with_default();
    let expected = Arc::new(one_shot_suite(&sailors_sample()));

    const CLIENTS: usize = 4;
    const ITERS: usize = 3;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let server = Arc::clone(&server);
            let expected = Arc::clone(&expected);
            thread::spawn(move || {
                for iter in 0..ITERS {
                    for (i, (lang, text, want)) in expected.iter().enumerate() {
                        // Alternate physical engines across clients and
                        // rounds; parallel is bit-identical by contract.
                        let engine =
                            if (client + iter + i) % 2 == 0 { "exec" } else { "parallel" };
                        let frame =
                            query_frame(i as u64, "default", lang, engine, text);
                        let resp = result_of(&server, &frame);
                        assert_eq!(
                            &body_of(&resp),
                            want,
                            "client {client} iter {iter} {lang} `{text}` ({engine})"
                        );
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread panicked");
    }

    // Everything after the first round of misses was served from the
    // prepared-plan cache: exec and parallel are the same engine at two
    // widths and share one plan, so there is one key per (lang, text).
    let stats = server.plan_cache().stats();
    assert!(stats.hits > 0, "repeat queries must hit the plan cache: {stats:?}");
    assert!(
        stats.len <= expected.len(),
        "at most one entry per query, whatever its width: {stats:?}"
    );
}

const GEN_DB: &str = "relation R(a:int, b:int)\n1, 10\n2, 20\n3, 30\n";
const GEN_QUERY_TRC: &str = "{ r.a, r.b | R(r) and r.b > 5 }";
const GEN_QUERY_DATALOG: &str = "ans(A, B) :- R(A, B), B > 5.";

/// Renders the one-shot answer of the generation-test queries against
/// an explicit database state.
fn gen_expected(db: &Database) -> (String, String) {
    let cfg = ExecOptions::default();
    let trc = relviz::rc::trc_parse::parse_trc(GEN_QUERY_TRC).expect("trc parses");
    let t = eval_trc_with(Engine::Indexed, &trc, db, cfg).expect("trc evals");
    let prog = relviz::datalog::parse::parse_program(GEN_QUERY_DATALOG).expect("dl parses");
    let d = eval_datalog_with(Engine::Indexed, &prog, db, cfg).expect("dl evals");
    (format!("{t}"), format!("{d}"))
}

#[test]
fn generation_bumps_invalidate_cached_plans_and_results_track_the_snapshot() {
    let server = server_with_default();
    let load = format!(
        "{{\"type\":\"load\",\"id\":0,\"db\":\"g\",\"text\":\"{}\"}}",
        escape(GEN_DB)
    );
    assert_eq!(
        Json::parse(&server.handle_line(&load)[0]).unwrap().get("type").and_then(Json::as_str),
        Some("ok")
    );

    let mut local = parse_database(GEN_DB).expect("parses");
    let (want_trc, want_dl) = gen_expected(&local);

    // Cold plans: both languages miss, then hit.
    for (lang, text, want) in
        [("trc", GEN_QUERY_TRC, &want_trc), ("datalog", GEN_QUERY_DATALOG, &want_dl)]
    {
        let resp = result_of(&server, &query_frame(1, "g", lang, "exec", text));
        assert_eq!(resp.get("cached_plan").and_then(Json::as_bool), Some(false), "{lang}");
        assert_eq!(resp.get("generation").and_then(Json::as_u64), Some(0));
        assert_eq!(&body_of(&resp), want, "{lang} cold");
        let resp = result_of(&server, &query_frame(2, "g", lang, "exec", text));
        assert_eq!(resp.get("cached_plan").and_then(Json::as_bool), Some(true), "{lang}");
        assert_eq!(&body_of(&resp), want, "{lang} cached");
    }

    // Mutate: the generation bumps and the cached plans are dead.
    let fragment = "relation R(a:int, b:int)\n9, 90\n";
    let insert = format!(
        "{{\"type\":\"insert\",\"id\":3,\"db\":\"g\",\"text\":\"{}\"}}",
        escape(fragment)
    );
    let ok = Json::parse(&server.handle_line(&insert)[0]).expect("ok frame");
    assert_eq!(ok.get("generation").and_then(Json::as_u64), Some(1));
    let misses_before = server.plan_cache().stats().misses;

    // One-shot against a locally mutated copy is the oracle.
    for rel_name in ["R"] {
        let frag = parse_database(fragment).expect("fragment parses");
        let mut merged = local.relation(rel_name).expect("R exists").clone();
        for t in frag.relation(rel_name).expect("R exists").iter() {
            merged.insert(t.clone()).expect("inserts");
        }
        local.set(rel_name.to_string(), merged);
    }
    let (want_trc, want_dl) = gen_expected(&local);
    for (lang, text, want) in
        [("trc", GEN_QUERY_TRC, &want_trc), ("datalog", GEN_QUERY_DATALOG, &want_dl)]
    {
        let resp = result_of(&server, &query_frame(4, "g", lang, "exec", text));
        assert_eq!(
            resp.get("cached_plan").and_then(Json::as_bool),
            Some(false),
            "{lang}: generation bump must invalidate the cached plan"
        );
        assert_eq!(resp.get("generation").and_then(Json::as_u64), Some(1));
        assert_eq!(&body_of(&resp), want, "{lang} post-insert");
        assert!(body_of(&resp).contains('9'), "{lang} sees the inserted row");
    }
    let stats = server.plan_cache().stats();
    assert!(
        stats.misses >= misses_before + 2,
        "both re-plans after the bump are misses: {stats:?}"
    );

    // Drop + reload: generations stay monotone (2, not 0), and the
    // reloaded state answers like a fresh database.
    server.handle_line(r#"{"type":"drop","id":5,"db":"g"}"#);
    let resp = server.handle_line(&query_frame(6, "g", "trc", "exec", GEN_QUERY_TRC));
    assert!(resp[0].contains("\"error\""), "dropped db must error: {resp:?}");
    server.handle_line(&load);
    let fresh = parse_database(GEN_DB).expect("parses");
    let (want_trc, _) = gen_expected(&fresh);
    let resp = result_of(&server, &query_frame(7, "g", "trc", "exec", GEN_QUERY_TRC));
    assert_eq!(resp.get("generation").and_then(Json::as_u64), Some(2));
    assert_eq!(resp.get("cached_plan").and_then(Json::as_bool), Some(false));
    assert_eq!(&body_of(&resp), &want_trc);
}

#[test]
fn concurrent_readers_stay_consistent_under_generation_bumps() {
    let server = server_with_default();
    const BUMPS: u64 = 4;

    // Precompute the oracle rendering per generation: generation g has
    // the base rows plus fragments 0..g.
    let mut per_gen = Vec::new();
    let mut local = parse_database(GEN_DB).expect("parses");
    per_gen.push(gen_expected(&local).0);
    for g in 1..=BUMPS {
        let frag_text = format!("relation R(a:int, b:int)\n{}, {}\n", 100 + g, 1000 + g);
        let frag = parse_database(&frag_text).expect("fragment parses");
        let mut merged = local.relation("R").expect("R").clone();
        for t in frag.relation("R").expect("R").iter() {
            merged.insert(t.clone()).expect("inserts");
        }
        local.set("R", merged);
        per_gen.push(gen_expected(&local).0);
    }
    let per_gen = Arc::new(per_gen);

    let load =
        format!("{{\"type\":\"load\",\"id\":0,\"db\":\"g\",\"text\":\"{}\"}}", escape(GEN_DB));
    server.handle_line(&load);

    let readers: Vec<_> = (0..3)
        .map(|client| {
            let server = Arc::clone(&server);
            let per_gen = Arc::clone(&per_gen);
            thread::spawn(move || {
                let mut last_gen = 0u64;
                for i in 0..60 {
                    let engine = if (client + i) % 2 == 0 { "exec" } else { "parallel" };
                    let resp =
                        result_of(&server, &query_frame(i as u64, "g", "trc", engine, GEN_QUERY_TRC));
                    let generation =
                        resp.get("generation").and_then(Json::as_u64).expect("generation");
                    // Each body must be the oracle rendering *of its own
                    // generation* — a torn read would mismatch every one.
                    assert_eq!(
                        &body_of(&resp),
                        &per_gen[generation as usize],
                        "client {client} iteration {i} generation {generation}"
                    );
                    // Generations never run backwards for one client.
                    assert!(generation >= last_gen, "snapshot went backwards");
                    last_gen = generation;
                }
            })
        })
        .collect();

    let writer = {
        let server = Arc::clone(&server);
        thread::spawn(move || {
            for g in 1..=BUMPS {
                thread::yield_now();
                let frag_text =
                    format!("relation R(a:int, b:int)\n{}, {}\n", 100 + g, 1000 + g);
                let insert = format!(
                    "{{\"type\":\"insert\",\"id\":{g},\"db\":\"g\",\"text\":\"{}\"}}",
                    escape(&frag_text)
                );
                let ok = Json::parse(&server.handle_line(&insert)[0]).expect("ok");
                assert_eq!(ok.get("type").and_then(Json::as_str), Some("ok"));
            }
        })
    };
    writer.join().expect("writer panicked");
    for r in readers {
        r.join().expect("reader panicked");
    }

    // After the dust settles every client sees the final generation.
    let resp = result_of(&server, &query_frame(99, "g", "trc", "exec", GEN_QUERY_TRC));
    assert_eq!(resp.get("generation").and_then(Json::as_u64), Some(BUMPS));
    assert_eq!(&body_of(&resp), &per_gen[BUMPS as usize]);
}

#[test]
fn protocol_errors_do_not_poison_the_session() {
    let server = server_with_default();
    let input = format!(
        "this is not json\n{}\n{}\n",
        r#"{"type":"query","id":1,"query":"SELECT X.nope FROM Nowhere X"}"#,
        query_frame(2, "default", "sql", "exec", SUITE[0].sql),
    );
    let mut out = Vec::new();
    server.serve_connection(input.as_bytes(), &mut out).expect("serves");
    let text = String::from_utf8(out).expect("utf8");
    let types: Vec<String> = text
        .lines()
        .map(|l| {
            Json::parse(l)
                .expect("every line is a frame")
                .get("type")
                .and_then(Json::as_str)
                .expect("typed")
                .to_string()
        })
        .collect();
    assert_eq!(types, ["hello", "error", "error", "result"], "{text}");
}
