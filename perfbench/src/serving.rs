//! The serve workloads' subject: one in-process `relviz serve` instance
//! driven through `Server::handle_line`, the path both transports funnel
//! into; the oracle that checks its answers; and the traced replica that
//! replays each request through the layers' public functions.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use relviz_exec::{
    eval_datalog_all_with, eval_datalog_with, eval_fixpoint, eval_trc_with, magic_transform,
    plan_datalog_with, plan_trc_with, run_sql_with, Engine, FixpointPlan, IndexedRelation,
    OptConfig, PhysPlan,
};
use relviz_model::text::parse_database;
use relviz_model::{Database, Relation};
use relviz_serve::{
    error_frame, escape, Catalog, Json, Lang, PlanCache, PlanKey, Prepared, Server, ServerConfig,
    Snapshot,
};

use crate::harness::{Counts, Facts, Subject};
use crate::trace::Tracer;
use crate::workload::{Op, Request, Workload, DB};

/// Every request runs with the optimizer on: the server's default.
fn opt() -> OptConfig {
    OptConfig::optimized()
}

/// A single-threaded server (`threads: 1`), as every serve workload uses.
pub struct Serve {
    server: Server,
}

/// The load frame the set-up sends first; not one of the workload's op
/// types.
fn setup_load(w: &Workload) -> Op {
    Op {
        kind: usize::MAX,
        id: 0,
        request: Request::Load,
        line: w.load_frame(0),
    }
}

impl Subject for Serve {
    type Out = Vec<String>;
    type Checker = Oracle;
    type Replica = Replica;
    type Replayed = Vec<String>;

    fn setup(w: &Workload) -> (Serve, Vec<(Op, Vec<String>)>) {
        let server = Server::new(ServerConfig {
            threads: 1,
            default_opt: opt(),
            cache_cap: PlanCache::DEFAULT_CAP,
        });
        let serve = Serve { server };
        let outs = std::iter::once(setup_load(w))
            .chain(w.setup_ops())
            .map(|op| {
                let out = serve.run(&op);
                (op, out)
            })
            .collect();
        (serve, outs)
    }

    fn run(&self, op: &Op) -> Vec<String> {
        self.server.handle_line(&op.line)
    }

    fn checker(w: &Workload) -> Oracle {
        Oracle::new(w)
    }

    fn fork(oracle: &Oracle) -> Oracle {
        oracle.fork()
    }

    fn check(oracle: &mut Oracle, op: &Op, out: &Vec<String>) -> Result<(), String> {
        oracle.check(op, out)
    }

    fn replica(_: &Workload) -> Replica {
        Replica {
            catalog: Catalog::new(),
            cache: PlanCache::new(PlanCache::DEFAULT_CAP),
        }
    }

    fn replay(replica: &mut Replica, tr: &mut Tracer, op: &Op, facts: &mut Facts) -> Vec<String> {
        let frames = replica.handle_line(tr, &op.line, facts);
        facts.bytes_out = frames.iter().map(String::len).sum();
        facts.plan_cache_len = Some(replica.cache.stats().len);
        frames
    }

    fn compare(replayed: &Vec<String>, out: &Vec<String>) -> Result<(), String> {
        if replayed == out {
            Ok(())
        } else {
            Err(format!(
                "replayed frames differ from handle_line's: {} vs {}",
                abbreviate(&replayed.join("\n")),
                abbreviate(&out.join("\n"))
            ))
        }
    }
}

fn abbreviate(s: &str) -> String {
    match s.char_indices().nth(160) {
        Some((cut, _)) => format!("{}…", &s[..cut]),
        None => s.to_string(),
    }
}

// ---------------------------------------------------------------------
// The oracle
// ---------------------------------------------------------------------

/// What a query should return, from one-shot evaluation.
type Expected = Arc<Result<(usize, String), String>>;

/// Expectations computed off the server: a mirror of the catalog's
/// current database, evaluated one-shot with `relviz_exec`, plus a model
/// of which texts the plan cache holds at the current generation.
pub struct Oracle {
    base: Arc<Database>,
    db: Arc<Database>,
    /// Whether `db` is `base` (no insert since the last load).
    at_base: bool,
    generation: u64,
    loaded: bool,
    planned: HashSet<(Lang, String)>,
    /// Expected answers on the base database, valid for every instance.
    base_memo: HashMap<(Lang, String), Expected>,
    /// Expected answers on the current database once it has diverged.
    memo: HashMap<(Lang, String), Expected>,
}

impl Oracle {
    fn new(w: &Workload) -> Oracle {
        let base = Arc::new(w.base.clone());
        Oracle {
            db: Arc::clone(&base),
            base,
            at_base: true,
            generation: 0,
            loaded: false,
            planned: HashSet::new(),
            base_memo: HashMap::new(),
            memo: HashMap::new(),
        }
    }

    /// An oracle for a fresh server, reusing the base answers.
    fn fork(&self) -> Oracle {
        Oracle {
            db: Arc::clone(&self.base),
            base: Arc::clone(&self.base),
            at_base: true,
            generation: 0,
            loaded: false,
            planned: HashSet::new(),
            base_memo: self.base_memo.clone(),
            memo: HashMap::new(),
        }
    }

    /// A catalog write: the next generation, with no plans cached.
    fn bump(&mut self) {
        if self.loaded {
            self.generation += 1;
        }
        self.loaded = true;
        self.planned.clear();
        self.memo.clear();
    }

    fn check(&mut self, op: &Op, out: &[String]) -> Result<(), String> {
        let [frame] = out else {
            return Err(format!("expected one frame, got {}", out.len()));
        };
        let frame = Json::parse(frame).map_err(|e| format!("malformed response: {e}"))?;
        if frame.get("type").and_then(Json::as_str) == Some("error") {
            return Err(format!(
                "error frame: {}",
                frame
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
            ));
        }
        expect(&frame, "id", &Json::Num(op.id as f64))?;
        expect(&frame, "db", &Json::Str(DB.to_string()))?;
        match &op.request {
            Request::Query { lang, text } => {
                let key = (*lang, text.clone());
                let cached = !self.planned.insert(key.clone());
                let db = &self.db;
                let memo = if self.at_base {
                    &mut self.base_memo
                } else {
                    &mut self.memo
                };
                let expected = memo
                    .entry(key)
                    .or_insert_with(|| Arc::new(evaluate(*lang, text, db)))
                    .clone();
                let (rows, body) = expected
                    .as_ref()
                    .as_ref()
                    .map_err(|e| format!("oracle: {e}"))?;
                expect(&frame, "type", &Json::Str("result".into()))?;
                expect(&frame, "generation", &Json::Num(self.generation as f64))?;
                expect(&frame, "rows", &Json::Num(*rows as f64))?;
                expect(&frame, "cached_plan", &Json::Bool(cached))?;
                match frame.get("body").and_then(Json::as_str) {
                    Some(got) if got == body => Ok(()),
                    got => Err(format!(
                        "`body`: expected {}, got {got:?}",
                        abbreviate(body)
                    )),
                }
            }
            Request::Load | Request::Insert { .. } => {
                let what = match &op.request {
                    Request::Insert { fragment } => {
                        apply_insert(Arc::make_mut(&mut self.db), fragment)?;
                        self.at_base = false;
                        "insert"
                    }
                    _ => {
                        self.db = Arc::clone(&self.base);
                        self.at_base = true;
                        "load"
                    }
                };
                self.bump();
                expect(&frame, "type", &Json::Str("ok".into()))?;
                expect(&frame, "op", &Json::Str(what.into()))?;
                expect(&frame, "generation", &Json::Num(self.generation as f64))
            }
            Request::Render => Err("render op sent to the server".into()),
        }
    }
}

fn expect(frame: &Json, field: &str, want: &Json) -> Result<(), String> {
    match frame.get(field) {
        Some(got) if got == want => Ok(()),
        got => Err(format!(
            "`{field}`: expected {}, got {}",
            abbreviate(&format!("{want:?}")),
            abbreviate(&format!("{got:?}"))
        )),
    }
}

/// One-shot evaluation on the exec engine, rendered as the wire body.
fn evaluate(lang: Lang, text: &str, db: &Database) -> Result<(usize, String), String> {
    let rel = match lang {
        Lang::Sql => run_sql_with(Engine::Indexed, text, db, opt()),
        Lang::Trc => {
            let q = relviz_rc::trc_parse::parse_trc(text).map_err(|e| e.to_string())?;
            eval_trc_with(Engine::Indexed, &q, db, opt())
        }
        Lang::Datalog => {
            let p = relviz_datalog::parse::parse_program(text).map_err(|e| e.to_string())?;
            eval_datalog_with(Engine::Indexed, &p, db, opt())
        }
    }
    .map_err(|e| e.to_string())?;
    Ok((rel.len(), rel.to_string()))
}

/// The catalog's insert semantics on the mirror: existing relations take
/// the new tuples (set semantics), new relations are added.
fn apply_insert(db: &mut Database, fragment: &Database) -> Result<(), String> {
    for name in fragment.names() {
        let incoming = fragment.relation(name).map_err(|e| e.to_string())?;
        let merged = match db.relation(name) {
            Ok(existing) => {
                let mut merged = existing.clone();
                for t in incoming.iter() {
                    merged.insert(t.clone()).map_err(|e| e.to_string())?;
                }
                merged
            }
            Err(_) => incoming.clone(),
        };
        db.set(name.to_string(), merged);
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The traced replica
// ---------------------------------------------------------------------

/// A replica of the server's state (its own catalog and plan cache), kept
/// in step with the server by replaying every request it receives. Each
/// replayed request makes the server's calls in the server's order, with
/// a span around each call into a layer.
pub struct Replica {
    catalog: Catalog,
    cache: PlanCache,
}

/// A decoded request frame.
enum Decoded<'a> {
    Query {
        db: &'a str,
        lang: Lang,
        text: &'a str,
    },
    Load {
        db: &'a str,
        text: &'a str,
    },
    Insert {
        db: &'a str,
        text: &'a str,
    },
}

impl Replica {
    fn handle_line(&mut self, tr: &mut Tracer, line: &str, facts: &mut Facts) -> Vec<String> {
        let open = tr.begin("serve.wire.parse");
        let frame = Json::parse(line.trim());
        tr.end(open);
        let frame = match frame {
            Ok(f) => f,
            Err(e) => return vec![error_frame(None, &format!("malformed frame: {e}"))],
        };
        let id = frame.get("id").and_then(Json::as_u64);
        let decoded = tr.leaf("serve.wire.parse", || decode(&frame));
        let result = match decoded {
            Ok(Decoded::Query { db, lang, text }) => self.query(tr, id, db, lang, text, facts),
            Ok(Decoded::Load { db, text }) => self.write(tr, id, db, text, "load"),
            Ok(Decoded::Insert { db, text }) => self.write(tr, id, db, text, "insert"),
            Err(e) => Err(e),
        };
        result.unwrap_or_else(|message| vec![error_frame(id, &message)])
    }

    fn query(
        &mut self,
        tr: &mut Tracer,
        id: Option<u64>,
        db: &str,
        lang: Lang,
        text: &str,
        facts: &mut Facts,
    ) -> Result<Vec<String>, String> {
        let snap = tr
            .leaf("serve.catalog.snapshot", || self.catalog.get(db))
            .ok_or_else(|| format!("unknown database `{db}`"))?;
        let open = tr.begin("serve.cache.lookup");
        let key = PlanKey::new(db, snap.generation, lang, Engine::Indexed, opt(), text);
        let hit = self.cache.get(&key);
        tr.end(open);
        facts.cache_hit = Some(hit.is_some());
        let (prepared, cached) = match hit {
            Some(p) => (p, true),
            None => {
                let p = prepare(tr, lang, text, &snap)?;
                tr.leaf("serve.cache.put", || self.cache.put(key, p.clone()));
                (p, false)
            }
        };
        let rel = execute(tr, &prepared, &snap, facts)?;
        facts.rows = Some(rel.len());
        let body = tr.leaf("model.render", || rel.to_string());
        let frame = tr.leaf("serve.wire.frame", || {
            with_id(
                "result",
                id,
                format!(
                    ",\"db\":\"{}\",\"generation\":{},\"rows\":{},\"cached_plan\":{cached},\"body\":\"{}\"",
                    escape(db),
                    snap.generation,
                    rel.len(),
                    escape(&body)
                ),
            )
        });
        Ok(vec![frame])
    }

    /// A `load` or `insert` frame (`op`).
    fn write(
        &mut self,
        tr: &mut Tracer,
        id: Option<u64>,
        db: &str,
        text: &str,
        op: &'static str,
    ) -> Result<Vec<String>, String> {
        let parsed = tr
            .leaf("model.db_parse", || parse_database(text))
            .map_err(|e| e.to_string())?;
        let generation = tr.leaf("serve.catalog.write", || match op {
            "load" => Ok(self.catalog.load(db, parsed)),
            _ => self.catalog.insert(db, &parsed),
        })?;
        tr.leaf("serve.cache.purge", || self.cache.purge_db(db));
        Ok(vec![tr.leaf("serve.wire.frame", || {
            with_id(
                "ok",
                id,
                format!(
                    ",\"op\":\"{op}\",\"db\":\"{}\",\"generation\":{generation}",
                    escape(db)
                ),
            )
        })])
    }
}

/// The server's request decoding for the frames the workloads send
/// (`exec` engine, server-default optimizer, no `analyze`).
fn decode(frame: &Json) -> Result<Decoded<'_>, String> {
    let db = match frame.get("db") {
        None => "default",
        Some(v) => v.as_str().ok_or("`db` must be a string")?,
    };
    let text = |field: &str| frame.get(field).and_then(Json::as_str);
    match frame.get("type").and_then(Json::as_str) {
        Some("query") => {
            let text = text("query").ok_or("query frame has no `query` text")?;
            let lang = match frame.get("lang").and_then(Json::as_str).unwrap_or("sql") {
                "sql" => Lang::Sql,
                "trc" => Lang::Trc,
                "datalog" => Lang::Datalog,
                other => return Err(format!("unknown lang `{other}`")),
            };
            let replayable = ["engine", "threads", "no_opt", "optimize", "analyze"]
                .iter()
                .all(|f| frame.get(f).is_none());
            if !replayable {
                return Err("the replica replays default exec requests only".into());
            }
            Ok(Decoded::Query { db, lang, text })
        }
        Some("load") => Ok(Decoded::Load {
            db,
            text: text("text").ok_or("frame has no `text`")?,
        }),
        Some("insert") => Ok(Decoded::Insert {
            db,
            text: text("text").ok_or("frame has no `text`")?,
        }),
        Some(other) => Err(format!("the replica does not replay `{other}` frames")),
        None => Err("frame has no `type`".into()),
    }
}

/// Parse and plan, as the server's `prepare` does.
fn prepare(tr: &mut Tracer, lang: Lang, text: &str, snap: &Snapshot) -> Result<Prepared, String> {
    let db = &*snap.db;
    let cfg = opt();
    match lang {
        Lang::Sql => {
            let q = tr
                .leaf("sql.parse", || relviz_sql::parse_query(text))
                .map_err(|e| e.to_string())?;
            let trc = tr
                .leaf("rc.from_sql", || relviz_rc::from_sql::sql_to_trc(&q, db))
                .map_err(|e| e.to_string())?;
            let plan = tr
                .leaf("exec.plan", || plan_trc_with(&trc, db, cfg))
                .map_err(|e| e.to_string())?;
            Ok(Prepared::Plan(Arc::new(plan)))
        }
        Lang::Trc => {
            let q = tr
                .leaf("rc.trc_parse", || relviz_rc::trc_parse::parse_trc(text))
                .map_err(|e| e.to_string())?;
            let plan = tr
                .leaf("exec.plan", || plan_trc_with(&q, db, cfg))
                .map_err(|e| e.to_string())?;
            Ok(Prepared::Plan(Arc::new(plan)))
        }
        Lang::Datalog => {
            let prog = tr
                .leaf("datalog.parse", || {
                    relviz_datalog::parse::parse_program(text)
                })
                .map_err(|e| e.to_string())?;
            if cfg.magic {
                if let Some(t) = tr.leaf("exec.magic", || magic_transform(&prog)) {
                    if let Ok(plan) = tr.leaf("exec.plan", || plan_datalog_with(&t, db, cfg)) {
                        return Ok(Prepared::Fixpoint {
                            plan: Arc::new(plan),
                            query_pred: t.query.clone(),
                            program: Arc::new(prog),
                        });
                    }
                }
            }
            let plan = tr
                .leaf("exec.plan", || plan_datalog_with(&prog, db, cfg))
                .map_err(|e| e.to_string())?;
            let query_pred = prog.query.clone();
            Ok(Prepared::Fixpoint {
                plan: Arc::new(plan),
                query_pred,
                program: Arc::new(prog),
            })
        }
    }
}

/// Execute a prepared plan, as the server's `execute_prepared` does on
/// the exec engine. Before the call, and outside the op's time, the
/// relations the plan scans are materialized once more on their own: the
/// executor materializes inside `run`, so this separate timing is how the
/// materialization layer is measured.
fn execute(
    tr: &mut Tracer,
    prepared: &Prepared,
    snap: &Snapshot,
    facts: &mut Facts,
) -> Result<Relation, String> {
    let db = &*snap.db;
    match prepared {
        Prepared::Plan(plan) => {
            let mut scans = Vec::new();
            plan_scans(plan, &mut scans);
            materialize(tr, &scans, db, facts);
            let batch = tr
                .leaf("exec.run", || relviz_exec::run::run(plan, db))
                .map_err(|e| e.to_string())?;
            Ok(tr.leaf("exec.finalize", || batch.into_relation()))
        }
        Prepared::Fixpoint {
            plan,
            query_pred,
            program,
        } => {
            materialize(tr, &fixpoint_scans(plan), db, facts);
            tr.leaf("exec.fixpoint", || {
                let mut all = eval_fixpoint(plan, db).map_err(|e| e.to_string())?;
                match all.remove(query_pred) {
                    Some(rel) => Ok(rel),
                    None => {
                        let mut all = eval_datalog_all_with(Engine::Indexed, program, db, opt())
                            .map_err(|e| e.to_string())?;
                        all.remove(&program.query).ok_or_else(|| {
                            format!("query predicate `{}` was never derived", program.query)
                        })
                    }
                }
            })
        }
    }
}

/// Times `IndexedRelation::from_relation` on each scanned relation as a
/// side span, and sets its counter deltas aside so they are not charged
/// to the op.
fn materialize(tr: &mut Tracer, rels: &[String], db: &Database, facts: &mut Facts) {
    if !tr.is_on() {
        return;
    }
    let before = Counts::now();
    let open = tr.begin_side("exec.materialize");
    for name in rels {
        if let Ok(rel) = db.relation(name) {
            drop(std::hint::black_box(IndexedRelation::from_relation(rel)));
        }
    }
    tr.end(open);
    facts.side = Counts::now().minus(&before);
}

/// Base relations a plan scans, each once.
fn plan_scans(plan: &PhysPlan, out: &mut Vec<String>) {
    match plan {
        PhysPlan::Scan { rel, .. } => {
            if !out.contains(rel) {
                out.push(rel.clone());
            }
        }
        PhysPlan::ScanIdb { .. } | PhysPlan::ScanDelta { .. } | PhysPlan::Values { .. } => {}
        PhysPlan::Filter { input, .. }
        | PhysPlan::Project { input, .. }
        | PhysPlan::Dedup { input, .. }
        | PhysPlan::Shared { input, .. } => plan_scans(input, out),
        PhysPlan::HashJoin { left, right, .. }
        | PhysPlan::SemiJoin { left, right, .. }
        | PhysPlan::AntiJoin { left, right, .. }
        | PhysPlan::Union { left, right, .. }
        | PhysPlan::Diff { left, right, .. } => {
            plan_scans(left, out);
            plan_scans(right, out);
        }
    }
}

fn fixpoint_scans(plan: &FixpointPlan) -> Vec<String> {
    let mut out = Vec::new();
    for rule in plan.strata.iter().flat_map(|s| &s.rules) {
        plan_scans(&rule.full, &mut out);
        for d in &rule.deltas {
            plan_scans(&d.plan, &mut out);
        }
    }
    out
}

/// `{"type":"<ty>","id":N<body>}`, the id omitted when absent.
fn with_id(ty: &str, id: Option<u64>, body: String) -> String {
    match id {
        Some(id) => format!("{{\"type\":\"{ty}\",\"id\":{id}{body}}}"),
        None => format!("{{\"type\":\"{ty}\"{body}}}"),
    }
}
