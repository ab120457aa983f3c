//! The resident query server: frame dispatch, the stdio loop, and the
//! TCP accept loop.
//!
//! One [`Server`] owns the [`Catalog`] and the [`PlanCache`]; every
//! connection (or the single stdio stream) shares it behind an `Arc`.
//! A request never touches process-global state: its [`ExecOptions`]
//! (worker width and optimizer configuration) are resolved *at request
//! construction* from frame fields falling back to server defaults —
//! the `RELVIZ_THREADS` environment variable is consulted exactly once,
//! when the server is built ([`Server::new`]).

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use relviz_exec::parallel::eval_fixpoint_parallel;
use relviz_exec::{
    eval_datalog_all_with, eval_datalog_analyzed_with, eval_datalog_with, eval_trc_analyzed_with,
    eval_trc_with, execute_parallel, magic_transform, plan_datalog_with, plan_trc_with,
    resolve_threads, resolve_threads_from, run_sql_analyzed_with, run_sql_with, Engine,
    ExecOptions, OptConfig,
};
use relviz_model::text::parse_database;
use relviz_model::Relation;

use crate::cache::{Lang, PlanCache, PlanKey, Prepared};
use crate::catalog::{Catalog, Snapshot};
use crate::wire::{error_frame, escape, Json, WIRE_SCHEMA};

/// Server construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Default parallel worker width; `0` means *auto* (resolved from
    /// `RELVIZ_THREADS` / hardware **once**, at construction).
    pub threads: usize,
    /// Optimizer default for requests that don't say (the CLI's
    /// `--no-opt` lands here; `Default` turns the optimizer on).
    pub default_opt: OptConfig,
    /// Prepared-plan cache capacity.
    pub cache_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            threads: 0,
            default_opt: OptConfig::optimized(),
            cache_cap: PlanCache::DEFAULT_CAP,
        }
    }
}

/// The resident query service. See the [`wire`] module docs for the
/// `relviz-wire-v1` protocol it speaks.
pub struct Server {
    catalog: Catalog,
    cache: PlanCache,
    /// The resolved default parallel width — env was read once, here.
    threads: usize,
    default_opt: OptConfig,
}

impl Server {
    pub fn new(config: ServerConfig) -> Server {
        Server {
            catalog: Catalog::new(),
            cache: PlanCache::new(config.cache_cap),
            threads: resolve_threads(config.threads).max(1),
            default_opt: config.default_opt,
        }
    }

    /// The catalog, for preloading databases before serving.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The plan cache (tests pin invalidation through its counters).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.cache
    }

    /// The resolved default parallel width.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The session greeting, sent once per connection before any
    /// request is read.
    pub fn hello(&self) -> String {
        format!(
            "{{\"type\":\"hello\",\"schema\":\"{WIRE_SCHEMA}\",\"version\":\"{}\",\"threads\":{}}}",
            escape(env!("CARGO_PKG_VERSION")),
            self.threads
        )
    }

    /// Handles one request line, returning the response frames in
    /// order. Blank lines produce nothing; every failure produces
    /// exactly one `error` frame.
    pub fn handle_line(&self, line: &str) -> Vec<String> {
        let line = line.trim();
        if line.is_empty() {
            return Vec::new();
        }
        let frame = match Json::parse(line) {
            Ok(f) => f,
            Err(e) => return vec![error_frame(None, &format!("malformed frame: {e}"))],
        };
        let id = frame.get("id").and_then(Json::as_u64);
        let Some(ty) = frame.get("type").and_then(Json::as_str) else {
            return vec![error_frame(id, "frame has no `type`")];
        };
        let result = match ty {
            "query" => self.handle_query(id, &frame),
            "load" => self.handle_load(id, &frame),
            "insert" => self.handle_insert(id, &frame),
            "drop" => self.handle_drop(id, &frame),
            "catalog" => Ok(vec![self.catalog_frame(id)]),
            "ping" => Ok(vec![with_id("pong", id, String::new())]),
            other => Err(format!("unknown frame type `{other}`")),
        };
        result.unwrap_or_else(|message| vec![error_frame(id, &message)])
    }

    // -- query ---------------------------------------------------------

    fn handle_query(&self, id: Option<u64>, frame: &Json) -> Result<Vec<String>, String> {
        let req = QueryRequest::from_frame(frame, self.threads, self.default_opt)?;
        let snap = self
            .catalog
            .get(&req.db)
            .ok_or_else(|| format!("unknown database `{}`", req.db))?;
        if req.analyze {
            self.run_analyzed(id, &req, &snap)
        } else {
            let (rel, cached) = self.run_plain(&req, &snap)?;
            Ok(vec![result_frame(id, &req.db, snap.generation, cached, &rel)])
        }
    }

    /// The non-analyze path: physical engines go through the plan
    /// cache, the reference oracle never does (it has no plan).
    fn run_plain(&self, req: &QueryRequest, snap: &Snapshot) -> Result<(Relation, bool), String> {
        if req.engine == Engine::Reference {
            let src = snap.source();
            let rel = match req.lang {
                Lang::Sql => run_sql_with(req.engine, &req.text, src, req.opts),
                Lang::Trc => {
                    let q = relviz_rc::trc_parse::parse_trc(&req.text).map_err(str_of)?;
                    eval_trc_with(req.engine, &q, src, req.opts)
                }
                Lang::Datalog => {
                    let prog = relviz_datalog::parse::parse_program(&req.text).map_err(str_of)?;
                    eval_datalog_with(req.engine, &prog, src, req.opts)
                }
            }
            .map_err(str_of)?;
            return Ok((rel, false));
        }

        // The key names no width: every width runs the same plan.
        let key =
            PlanKey::new(&req.db, snap.generation, req.lang, req.engine, req.opts.opt, &req.text);
        let (prepared, cached) = match self.cache.get(&key) {
            Some(p) => (p, true),
            None => {
                let p = self.prepare(req, snap)?;
                self.cache.put(key, p.clone());
                (p, false)
            }
        };
        let rel = self.execute_prepared(&prepared, req, snap)?;
        Ok((rel, cached))
    }

    fn prepare(&self, req: &QueryRequest, snap: &Snapshot) -> Result<Prepared, String> {
        let src = snap.source();
        match req.lang {
            Lang::Sql => {
                let trc =
                    relviz_rc::from_sql::parse_sql_to_trc(&req.text, &snap.db).map_err(str_of)?;
                let plan = plan_trc_with(&trc, &src, req.opts.opt).map_err(str_of)?;
                Ok(Prepared::Plan(Arc::new(plan)))
            }
            Lang::Trc => {
                let q = relviz_rc::trc_parse::parse_trc(&req.text).map_err(str_of)?;
                let plan = plan_trc_with(&q, &src, req.opts.opt).map_err(str_of)?;
                Ok(Prepared::Plan(Arc::new(plan)))
            }
            Lang::Datalog => {
                let prog = relviz_datalog::parse::parse_program(&req.text).map_err(str_of)?;
                // Mirror `eval_datalog_with`: with the optimizer on,
                // prefer the magic-transformed program; keep the
                // original for the defensive fallback.
                if req.opts.opt.magic {
                    if let Some(t) = magic_transform(&prog) {
                        if let Ok(plan) = plan_datalog_with(&t, &src, req.opts.opt) {
                            return Ok(Prepared::Fixpoint {
                                plan: Arc::new(plan),
                                query_pred: t.query.clone(),
                                program: Arc::new(prog),
                            });
                        }
                    }
                }
                let plan = plan_datalog_with(&prog, &src, req.opts.opt).map_err(str_of)?;
                let query_pred = prog.query.clone();
                Ok(Prepared::Fixpoint { plan: Arc::new(plan), query_pred, program: Arc::new(prog) })
            }
        }
    }

    fn execute_prepared(
        &self,
        prepared: &Prepared,
        req: &QueryRequest,
        snap: &Snapshot,
    ) -> Result<Relation, String> {
        let src = snap.source();
        let threads = req.opts.threads;
        match prepared {
            Prepared::Plan(plan) => execute_parallel(plan, &src, threads).map_err(str_of),
            Prepared::Fixpoint { plan, query_pred, program } => {
                let mut all = eval_fixpoint_parallel(plan, &src, threads).map_err(str_of)?;
                match all.remove(query_pred) {
                    Some(rel) => Ok(rel),
                    // The magic-planned program didn't derive the query
                    // predicate — fall back to the untransformed
                    // program, exactly like `eval_datalog_with`.
                    None => {
                        let mut all = eval_datalog_all_with(req.engine, program, &src, req.opts)
                            .map_err(str_of)?;
                        all.remove(&program.query).ok_or_else(|| {
                            format!("query predicate `{}` was never derived", program.query)
                        })
                    }
                }
            }
        }
    }

    /// The analyze path: instrumentation is per-run, so it bypasses the
    /// plan cache and emits a `stats` frame after the `result` frame.
    fn run_analyzed(
        &self,
        id: Option<u64>,
        req: &QueryRequest,
        snap: &Snapshot,
    ) -> Result<Vec<String>, String> {
        let src = snap.source();
        let (rel, report) = match req.lang {
            Lang::Sql => run_sql_analyzed_with(req.engine, &req.text, &src, req.opts),
            Lang::Trc => {
                let q = relviz_rc::trc_parse::parse_trc(&req.text).map_err(str_of)?;
                eval_trc_analyzed_with(req.engine, &q, &src, req.opts)
            }
            Lang::Datalog => {
                let prog = relviz_datalog::parse::parse_program(&req.text).map_err(str_of)?;
                eval_datalog_analyzed_with(req.engine, &prog, &src, req.opts)
            }
        }
        .map_err(str_of)?;
        Ok(vec![
            result_frame(id, &req.db, snap.generation, false, &rel),
            with_id(
                "stats",
                id,
                format!(",\"stats_schema\":\"relviz-stats-v1\",\"stats_json\":\"{}\"", escape(&report.to_json())),
            ),
        ])
    }

    // -- catalog mutations ---------------------------------------------

    fn handle_load(&self, id: Option<u64>, frame: &Json) -> Result<Vec<String>, String> {
        let db = db_name(frame)?;
        let text = text_field(frame)?;
        let parsed = parse_database(text).map_err(str_of)?;
        let generation = self.catalog.load(db, parsed);
        self.cache.purge_db(db);
        Ok(vec![ok_frame(id, "load", db, Some(generation))])
    }

    fn handle_insert(&self, id: Option<u64>, frame: &Json) -> Result<Vec<String>, String> {
        let db = db_name(frame)?;
        let text = text_field(frame)?;
        let fragment = parse_database(text).map_err(str_of)?;
        let generation = self.catalog.insert(db, &fragment)?;
        self.cache.purge_db(db);
        Ok(vec![ok_frame(id, "insert", db, Some(generation))])
    }

    fn handle_drop(&self, id: Option<u64>, frame: &Json) -> Result<Vec<String>, String> {
        let db = db_name(frame)?;
        if !self.catalog.drop_db(db) {
            return Err(format!("unknown database `{db}`"));
        }
        self.cache.purge_db(db);
        Ok(vec![ok_frame(id, "drop", db, None)])
    }

    fn catalog_frame(&self, id: Option<u64>) -> String {
        let mut body = String::from(",\"databases\":[");
        for (i, row) in self.catalog.list().iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&format!(
                "{{\"name\":\"{}\",\"generation\":{},\"relations\":{},\"tuples\":{}}}",
                escape(&row.name),
                row.generation,
                row.relations,
                row.tuples
            ));
        }
        let cache = self.cache.stats();
        body.push_str(&format!(
            "],\"plan_cache\":{{\"len\":{},\"hits\":{},\"misses\":{}}}",
            cache.len, cache.hits, cache.misses
        ));
        with_id("catalog", id, body)
    }

    // -- transports ----------------------------------------------------

    /// Serves one connection: greets, then answers line-by-line until
    /// EOF. Both the stdio and TCP modes funnel through here.
    pub fn serve_connection<R: BufRead, W: Write>(
        &self,
        reader: R,
        writer: &mut W,
    ) -> io::Result<()> {
        writeln!(writer, "{}", self.hello())?;
        writer.flush()?;
        for line in reader.lines() {
            for response in self.handle_line(&line?) {
                writeln!(writer, "{response}")?;
            }
            writer.flush()?;
        }
        Ok(())
    }

    /// `relviz serve --stdio`: one session over stdin/stdout.
    pub fn serve_stdio(&self) -> io::Result<()> {
        let stdin = io::stdin();
        let stdout = io::stdout();
        self.serve_connection(stdin.lock(), &mut stdout.lock())
    }

    /// `relviz serve --port N`: thread-per-connection accept loop.
    /// Runs until the listener errors (i.e. effectively forever).
    pub fn serve_listener(self: &Arc<Self>, listener: TcpListener) -> io::Result<()> {
        for conn in listener.incoming() {
            let stream: TcpStream = conn?;
            let server = Arc::clone(self);
            std::thread::spawn(move || {
                let Ok(read_half) = stream.try_clone() else {
                    return;
                };
                let mut writer = stream;
                let _ = server.serve_connection(BufReader::new(read_half), &mut writer);
            });
        }
        Ok(())
    }
}

/// A fully resolved query request: everything per-request, nothing
/// global. Built once per frame — the only place defaults (server
/// width, server optimizer config) are consulted.
struct QueryRequest {
    db: String,
    text: String,
    lang: Lang,
    engine: Engine,
    /// The worker width (resolved, always >= 1) and optimizer config.
    opts: ExecOptions,
    analyze: bool,
}

impl QueryRequest {
    fn from_frame(
        frame: &Json,
        server_threads: usize,
        default_opt: OptConfig,
    ) -> Result<QueryRequest, String> {
        let text = frame
            .get("query")
            .and_then(Json::as_str)
            .ok_or("query frame has no `query` text")?
            .to_string();
        let lang = match frame.get("lang").and_then(Json::as_str).unwrap_or("sql") {
            "sql" => Lang::Sql,
            "trc" => Lang::Trc,
            "datalog" => Lang::Datalog,
            other => return Err(format!("unknown lang `{other}`")),
        };
        // The worker width is pinned here: `exec` is one worker, and
        // `parallel` takes an explicit `threads` field, capped like
        // `--threads` and `RELVIZ_THREADS`, else the width the server
        // resolved at startup. `resolve_threads` is never called again
        // downstream because the width is always >= 1.
        let parallel_width = match frame.get("threads").and_then(Json::as_u64) {
            Some(t) if t > 0 => {
                resolve_threads_from(usize::try_from(t).unwrap_or(usize::MAX), None)
            }
            _ => server_threads,
        };
        let (engine, threads) = match frame.get("engine").and_then(Json::as_str).unwrap_or("exec") {
            "exec" | "indexed" => (Engine::Indexed, 1),
            "parallel" => (Engine::Indexed, parallel_width),
            "reference" => (Engine::Reference, 1),
            other => return Err(format!("unknown engine `{other}`")),
        };
        let mut cfg = default_opt;
        if frame.get("no_opt").and_then(Json::as_bool) == Some(true) {
            cfg = OptConfig::unoptimized();
        }
        if frame.get("optimize").and_then(Json::as_bool) == Some(true) {
            cfg = OptConfig::optimized();
        }
        let analyze = frame.get("analyze").and_then(Json::as_bool) == Some(true);
        Ok(QueryRequest {
            db: db_name(frame)?.to_string(),
            text,
            lang,
            engine,
            opts: ExecOptions { threads, opt: cfg },
            analyze,
        })
    }
}

// -- frame builders ----------------------------------------------------

fn db_name(frame: &Json) -> Result<&str, String> {
    match frame.get("db") {
        None => Ok("default"),
        Some(v) => v.as_str().ok_or_else(|| "`db` must be a string".to_string()),
    }
}

fn text_field(frame: &Json) -> Result<&str, String> {
    frame
        .get("text")
        .and_then(Json::as_str)
        .ok_or_else(|| "frame has no `text`".to_string())
}

/// `{"type":"<ty>","id":N<body>}` with the id omitted when absent;
/// `body` must start with `,` or be empty.
fn with_id(ty: &str, id: Option<u64>, body: String) -> String {
    match id {
        Some(id) => format!("{{\"type\":\"{ty}\",\"id\":{id}{body}}}"),
        None => format!("{{\"type\":\"{ty}\"{body}}}"),
    }
}

fn result_frame(id: Option<u64>, db: &str, generation: u64, cached: bool, rel: &Relation) -> String {
    with_id(
        "result",
        id,
        format!(
            ",\"db\":\"{}\",\"generation\":{generation},\"rows\":{},\"cached_plan\":{cached},\"body\":\"{}\"",
            escape(db),
            rel.len(),
            escape(&format!("{rel}"))
        ),
    )
}

fn ok_frame(id: Option<u64>, op: &str, db: &str, generation: Option<u64>) -> String {
    let mut body = format!(",\"op\":\"{op}\",\"db\":\"{}\"", escape(db));
    if let Some(generation) = generation {
        body.push_str(&format!(",\"generation\":{generation}"));
    }
    with_id("ok", id, body)
}

fn str_of(e: impl std::fmt::Display) -> String {
    e.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use relviz_model::catalog::sailors_sample;

    fn server() -> Server {
        let s = Server::new(ServerConfig { threads: 2, ..ServerConfig::default() });
        s.catalog().load("default", sailors_sample());
        s
    }

    fn one(server: &Server, line: &str) -> Json {
        let frames = server.handle_line(line);
        assert_eq!(frames.len(), 1, "expected one frame, got {frames:?}");
        Json::parse(&frames[0]).expect("response is valid JSON")
    }

    #[test]
    fn hello_identifies_the_wire_schema() {
        let s = server();
        let hello = Json::parse(&s.hello()).expect("hello parses");
        assert_eq!(hello.get("schema").and_then(Json::as_str), Some(WIRE_SCHEMA));
        assert_eq!(hello.get("threads").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn query_result_matches_one_shot_execution() {
        let s = server();
        let sql = "SELECT S.sname FROM Sailor S WHERE S.rating > 7";
        let resp = one(&s, &format!(r#"{{"type":"query","id":1,"query":"{sql}"}}"#));
        assert_eq!(resp.get("type").and_then(Json::as_str), Some("result"));
        let body = resp.get("body").and_then(Json::as_str).expect("body");
        let oneshot =
            run_sql_with(Engine::Indexed, sql, &sailors_sample(), ExecOptions::default())
                .expect("one-shot evaluates");
        assert_eq!(body, format!("{oneshot}"), "server body must be byte-identical");
        assert_eq!(resp.get("cached_plan").and_then(Json::as_bool), Some(false));
        // Second time around the plan comes from the cache — same body.
        let again = one(&s, &format!(r#"{{"type":"query","id":2,"query":"{sql}"}}"#));
        assert_eq!(again.get("cached_plan").and_then(Json::as_bool), Some(true));
        assert_eq!(again.get("body").and_then(Json::as_str), Some(body));
    }

    #[test]
    fn mutation_bumps_generation_and_invalidates_cached_plans() {
        let s = server();
        let q = r#"{"type":"query","id":1,"query":"SELECT S.sname FROM Sailor S"}"#;
        assert_eq!(one(&s, q).get("cached_plan").and_then(Json::as_bool), Some(false));
        assert_eq!(one(&s, q).get("cached_plan").and_then(Json::as_bool), Some(true));
        // Insert a sailor: generation bumps, the cached plan is dead.
        let ins = one(
            &s,
            r#"{"type":"insert","id":2,"db":"default","text":"relation Sailor(sid:int, sname:str, rating:int, age:float)\n99, zorba, 10, 33.0\n"}"#,
        );
        assert_eq!(ins.get("type").and_then(Json::as_str), Some("ok"));
        assert_eq!(ins.get("generation").and_then(Json::as_u64), Some(1));
        let resp = one(&s, q);
        assert_eq!(resp.get("cached_plan").and_then(Json::as_bool), Some(false));
        assert_eq!(resp.get("generation").and_then(Json::as_u64), Some(1));
        let body = resp.get("body").and_then(Json::as_str).expect("body");
        assert!(body.contains("zorba"), "post-insert result must see the new row:\n{body}");
    }

    #[test]
    fn analyze_appends_a_stats_frame() {
        let s = server();
        let frames = s.handle_line(
            r#"{"type":"query","id":5,"query":"SELECT S.sname FROM Sailor S","analyze":true}"#,
        );
        assert_eq!(frames.len(), 2, "{frames:?}");
        let stats = Json::parse(&frames[1]).expect("stats frame parses");
        assert_eq!(stats.get("type").and_then(Json::as_str), Some("stats"));
        let payload = stats.get("stats_json").and_then(Json::as_str).expect("stats_json");
        assert!(payload.contains("relviz-stats-v1"), "embedded relviz-stats-v1 document");
        assert!(!frames[1].contains('\n'), "frames stay single-line");
    }

    /// One plan serves every width: the width only matters when the
    /// plan runs, so `exec`, `parallel` at one worker and `parallel` at
    /// four share a single cache entry.
    #[test]
    fn plans_are_shared_across_widths() {
        let s = server();
        let sql = "SELECT S.sname FROM Sailor S WHERE S.rating > 7";
        let mut bodies = Vec::new();
        for (id, fields, cached) in [
            (1, r#""engine":"exec""#, false),
            (2, r#""engine":"parallel","threads":1"#, true),
            (3, r#""engine":"parallel","threads":4"#, true),
        ] {
            let resp =
                one(&s, &format!(r#"{{"type":"query","id":{id},"query":"{sql}",{fields}}}"#));
            assert_eq!(resp.get("cached_plan").and_then(Json::as_bool), Some(cached), "{fields}");
            bodies.push(resp.get("body").and_then(Json::as_str).map(str::to_string));
        }
        assert!(bodies.iter().all(|b| b.is_some() && *b == bodies[0]), "{bodies:?}");
        let cat = one(&s, r#"{"type":"catalog","id":4}"#);
        let len = cat.get("plan_cache").and_then(|c| c.get("len")).and_then(Json::as_u64);
        assert_eq!(len, Some(1));
    }

    /// A wire `threads` field resolves under the same 1024 cap as
    /// `--threads`, so one frame cannot ask the resident process for a
    /// billion workers. Only the request is built: no query runs and no
    /// thread is started.
    #[test]
    fn wire_thread_counts_are_capped() {
        let frame = Json::parse(
            r#"{"type":"query","id":1,"query":"SELECT S.sname FROM Sailor S","engine":"parallel","threads":1000000000}"#,
        )
        .expect("frame parses");
        let req = QueryRequest::from_frame(&frame, 2, OptConfig::optimized()).expect("request");
        assert_eq!(req.opts.threads, 1024);
    }

    /// The analyze label names the path that ran: a one-worker
    /// `parallel` request runs the serial path, so its stats say `exec`,
    /// and its answer is the `exec` request's.
    #[test]
    fn a_one_worker_parallel_analysis_reports_exec() {
        let s = server();
        let sql = "SELECT S.sname FROM Sailor S WHERE S.rating > 7";
        let exec = one(&s, &format!(r#"{{"type":"query","id":1,"query":"{sql}"}}"#));
        let frames = s.handle_line(&format!(
            r#"{{"type":"query","id":2,"query":"{sql}","engine":"parallel","threads":1,"analyze":true}}"#
        ));
        assert_eq!(frames.len(), 2, "{frames:?}");
        let result = Json::parse(&frames[0]).expect("result frame parses");
        assert_eq!(result.get("body"), exec.get("body"));
        let stats = Json::parse(&frames[1]).expect("stats frame parses");
        let payload = stats.get("stats_json").and_then(Json::as_str).expect("stats_json");
        assert!(payload.contains("\"engine\": \"exec\""), "{payload}");
        assert!(payload.contains("\"threads\": 1"), "{payload}");
    }

    #[test]
    fn errors_are_frames_not_panics() {
        let s = server();
        for (line, needle) in [
            ("not json", "malformed"),
            (r#"{"id":1}"#, "no `type`"),
            (r#"{"type":"nope","id":1}"#, "unknown frame type"),
            (r#"{"type":"query","id":1,"query":"SELECT","lang":"sql"}"#, ""),
            (r#"{"type":"query","id":1,"query":"{ s | Sailor(s) }","db":"missing"}"#, "unknown database"),
            (r#"{"type":"drop","id":1,"db":"missing"}"#, "unknown database"),
        ] {
            let resp = one(&s, line);
            assert_eq!(resp.get("type").and_then(Json::as_str), Some("error"), "{line}");
            let msg = resp.get("message").and_then(Json::as_str).unwrap_or_default();
            assert!(msg.contains(needle), "`{msg}` should mention `{needle}`");
        }
    }

    #[test]
    fn ping_catalog_load_drop_roundtrip() {
        let s = server();
        assert_eq!(
            one(&s, r#"{"type":"ping","id":9}"#).get("type").and_then(Json::as_str),
            Some("pong")
        );
        one(&s, r#"{"type":"load","id":1,"db":"tiny","text":"relation R(a:int)\n1\n2\n"}"#);
        let cat = one(&s, r#"{"type":"catalog","id":2}"#);
        let Some(Json::Arr(dbs)) = cat.get("databases") else { panic!("databases array") };
        assert_eq!(dbs.len(), 2);
        assert_eq!(dbs[1].get("name").and_then(Json::as_str), Some("tiny"));
        assert_eq!(dbs[1].get("tuples").and_then(Json::as_u64), Some(2));
        one(&s, r#"{"type":"drop","id":3,"db":"tiny"}"#);
        let cat = one(&s, r#"{"type":"catalog","id":4}"#);
        let Some(Json::Arr(dbs)) = cat.get("databases") else { panic!("databases array") };
        assert_eq!(dbs.len(), 1);
    }

    /// Materializations `line` causes (the executor counts them on the
    /// calling thread, and the `exec` engine stays on it).
    fn materializations(server: &Server, line: &str) -> usize {
        relviz_exec::stats::counters::reset();
        let frames = server.handle_line(line);
        assert!(
            frames.iter().all(|f| !f.contains("\"type\":\"error\"")),
            "{line} failed: {frames:?}"
        );
        relviz_exec::stats::counters::materializations()
    }

    fn query(sql: &str) -> String {
        format!(r#"{{"type":"query","id":1,"query":"{sql}"}}"#)
    }

    const ALL3: &str = "SELECT S.sname FROM Sailor S, Reserves R, Boat B \
                        WHERE S.sid = R.sid AND R.bid = B.bid";
    const ALL3_OTHER: &str = "SELECT B.bname FROM Sailor S, Reserves R, Boat B \
                              WHERE S.sid = R.sid AND R.bid = B.bid AND S.rating > 5";
    const SAILOR_BOAT: &str = "SELECT S.sname, B.bname FROM Sailor S, Boat B WHERE S.rating > 9";
    const INSERT_RESERVES: &str = r#"{"type":"insert","id":2,"text":"relation Reserves(sid:int, bid:int, day:str)\n95, 103, '2024-09-09'\n"}"#;

    /// Counter pin: a generation's relations are materialized once, on
    /// their first read, and every later request reuses them — a
    /// different query text (a plan-cache miss) included.
    #[test]
    fn an_unchanged_generation_materializes_each_relation_once() {
        let s = server();
        assert_eq!(materializations(&s, &query(ALL3)), 3);
        assert_eq!(materializations(&s, &query(ALL3_OTHER)), 0);
        assert_eq!(materializations(&s, &query(ALL3)), 0, "cached plan, resident batches");
        let analyze = format!(r#"{{"type":"query","id":3,"query":"{ALL3}","analyze":true}}"#);
        assert_eq!(materializations(&s, &analyze), 0, "analyze reads the snapshot's slots");
        let datalog = r#"{"type":"query","id":4,"lang":"datalog","query":"q(N) :- Sailor(S, N, R, A), Reserves(S, B, D)."}"#;
        assert_eq!(materializations(&s, datalog), 0, "the fixpoint reads them too");
    }

    /// Counter pin: an insert materializes nothing, and the next reads
    /// re-materialize the touched relation only.
    #[test]
    fn an_insert_rematerializes_only_the_touched_relation() {
        let s = server();
        assert_eq!(materializations(&s, &query(ALL3)), 3);
        assert_eq!(materializations(&s, INSERT_RESERVES), 0, "writes materialize nothing");
        assert_eq!(materializations(&s, &query(SAILOR_BOAT)), 0, "untouched: still resident");
        assert_eq!(materializations(&s, &query(ALL3_OTHER)), 1, "Reserves only");
        assert_eq!(materializations(&s, &query(ALL3)), 0);
    }

    /// Counter pin: a load materializes nothing, and each relation of
    /// the new generation materializes once, on its first read.
    #[test]
    fn a_load_rematerializes_each_relation_on_first_read() {
        let s = server();
        assert_eq!(materializations(&s, &query(ALL3)), 3);
        let text = relviz_model::text::dump_database(&sailors_sample());
        let load = format!(r#"{{"type":"load","id":5,"text":"{}"}}"#, escape(&text));
        assert_eq!(materializations(&s, &load), 0, "writes materialize nothing");
        assert_eq!(materializations(&s, &query("SELECT S.sname FROM Sailor S")), 1);
        assert_eq!(materializations(&s, &query("SELECT S.sid FROM Sailor S")), 0);
        assert_eq!(materializations(&s, &query(ALL3)), 2, "Reserves and Boat");
        assert_eq!(materializations(&s, &query(ALL3_OTHER)), 0);
    }

    /// The sketches a generation's estimates read describe that
    /// generation: after an insert, `EXPLAIN ANALYZE` estimates the
    /// touched relation's scan at its new row count, not the count the
    /// previous generation's sketch recorded.
    #[test]
    fn sketches_are_fresh_after_an_insert() {
        let s = server();
        let analyze = r#"{"type":"query","id":7,"query":"SELECT R.day FROM Reserves R","analyze":true}"#;
        let scan_est = |s: &Server| -> f64 {
            let frames = s.handle_line(analyze);
            let stats = Json::parse(&frames[1]).expect("stats frame parses");
            let payload = stats.get("stats_json").and_then(Json::as_str).expect("stats_json");
            let doc = Json::parse(payload).expect("stats document parses");
            let Some(Json::Arr(ops)) = doc.get("operators") else { panic!("operators") };
            let scan = ops
                .iter()
                .find(|op| op.get("op").and_then(Json::as_str) == Some("Scan"))
                .expect("a Scan operator");
            match scan.get("est_rows") {
                Some(Json::Num(n)) => *n,
                other => panic!("est_rows: {other:?}"),
            }
        };
        let before = sailors_sample().relation("Reserves").expect("Reserves").len();
        assert_eq!(scan_est(&s), before as f64);
        one(&s, INSERT_RESERVES);
        assert_eq!(scan_est(&s), (before + 1) as f64);
    }

    /// An insert whose fragment spells the relation in another case
    /// lands in the stored relation and refreshes its slot: a query on
    /// the canonical name sees the new row, exactly as one-shot
    /// execution over the same data does.
    #[test]
    fn a_differently_cased_insert_is_visible_to_the_canonical_name() {
        let s = server();
        let sql = "SELECT R.sid, R.bid FROM Reserves R WHERE R.bid = 103";
        one(&s, &query(sql)); // fill the generation's Reserves slot
        let ins = one(
            &s,
            r#"{"type":"insert","id":2,"text":"relation reserves(sid:int, bid:int, day:str)\n95, 103, '2024-09-09'\n"}"#,
        );
        assert_eq!(ins.get("type").and_then(Json::as_str), Some("ok"), "{ins:?}");
        let body = one(&s, &query(sql)).get("body").and_then(Json::as_str).map(str::to_string);
        let mut db = sailors_sample();
        db.relation_mut("Reserves")
            .expect("Reserves")
            .insert(relviz_model::Tuple::of((95, 103, "2024-09-09")))
            .expect("inserts");
        let oneshot =
            run_sql_with(Engine::Indexed, sql, &db, ExecOptions::default()).expect("runs");
        assert_eq!(body, Some(format!("{oneshot}")));
        assert!(body.is_some_and(|b| b.contains("95")), "the new row is visible");
    }

    #[test]
    fn serve_connection_greets_then_answers() {
        let s = server();
        let input = b"{\"type\":\"ping\",\"id\":1}\n" as &[u8];
        let mut out = Vec::new();
        s.serve_connection(input, &mut out).expect("serves");
        let text = String::from_utf8(out).expect("utf8");
        let mut lines = text.lines();
        let hello = Json::parse(lines.next().expect("hello line")).expect("parses");
        assert_eq!(hello.get("type").and_then(Json::as_str), Some("hello"));
        let pong = Json::parse(lines.next().expect("pong line")).expect("parses");
        assert_eq!(pong.get("type").and_then(Json::as_str), Some("pong"));
    }
}
