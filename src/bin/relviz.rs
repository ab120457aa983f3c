//! `relviz` — the command-line face of the toolkit.
//!
//! ```text
//! relviz show   "<SQL>"                 # ASCII diagram (Relational Diagrams)
//! relviz svg    "<SQL>" out.svg         # SVG to a file
//! relviz trans  "<SQL>"                 # the query in all five languages
//! relviz run    "<SQL>"                 # evaluate on the sailors sample DB
//! relviz matrix                         # the E5 expressiveness matrix
//! relviz serve  --stdio | --port N      # resident query service (relviz-wire-v1)
//! ```
//!
//! Options: `--formalism queryvis|reldiag|dfql|qbe|strings|visualsql|sqlvis|tabletalk|dataplay|sieuferd|qbd`,
//! `--db <file>` (text format of `relviz_model::text`),
//! `--engine exec|parallel|reference` (the interactive `run` path
//! defaults to `exec`, the physical engine at one worker; `parallel` is
//! the same engine at `--threads N` workers, 0 or absent = auto via
//! `RELVIZ_THREADS` / available hardware parallelism — results are
//! bit-identical at any width), `--no-opt` (plan without join
//! reordering and magic sets). The flags become one `OptConfig` and
//! one `ExecOptions`, passed explicitly to `run`, `check` and `serve`.

use std::process::ExitCode;

use relviz::core::{Backend, Engine, ExecOptions, QueryVisualizer, VisFormalism};
use relviz::exec::OptConfig;
use relviz::model::catalog::sailors_sample;
use relviz::model::Database;
use relviz::serve::{Server, ServerConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("relviz: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: Vec<String>) -> Result<(), String> {
    let mut positional = Vec::new();
    let mut formalism = VisFormalism::RelationalDiagrams;
    let mut engine = Engine::Indexed;
    let mut parallel = false; // `--engine parallel`: run at `threads` workers
    let mut threads: usize = 0; // 0 = auto (RELVIZ_THREADS / hardware)
    let mut opt = OptConfig::optimized();
    let mut db_path: Option<String> = None;
    let mut lang = String::from("sql");
    let mut suite = false;
    let mut verify = false;
    let mut analyze = false;
    let mut stats_json: Option<String> = None;
    let mut stdio = false;
    let mut port: Option<u16> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--analyze" => analyze = true,
            "--stdio" => stdio = true,
            "--port" => {
                let v = it.next().ok_or("--port needs a port number")?;
                port = Some(v.parse().map_err(|_| format!("--port: `{v}` is not a port"))?);
            }
            "--no-opt" => opt = OptConfig::unoptimized(),
            "--stats-json" => {
                stats_json = Some(it.next().ok_or("--stats-json needs a file path")?);
                analyze = true; // writing stats implies collecting them
            }
            "--lang" => {
                let v = it.next().ok_or("--lang needs sql|ra|trc|datalog")?;
                match v.as_str() {
                    "sql" | "ra" | "trc" | "datalog" => lang = v,
                    other => return Err(format!("unknown language `{other}`")),
                }
            }
            "--suite" => suite = true,
            "--verify" => verify = true,
            "--engine" => {
                let v = it.next().ok_or("--engine needs a value")?;
                (engine, parallel) = match v.as_str() {
                    "exec" | "indexed" => (Engine::Indexed, false),
                    "parallel" => (Engine::Indexed, true),
                    "reference" => (Engine::Reference, false),
                    other => return Err(format!("unknown engine `{other}`")),
                };
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a worker count")?;
                threads = v
                    .parse()
                    .map_err(|_| format!("--threads: `{v}` is not a worker count"))?;
            }
            "--formalism" => {
                let v = it.next().ok_or("--formalism needs a value")?;
                formalism = match v.as_str() {
                    "queryvis" => VisFormalism::QueryVis,
                    "reldiag" => VisFormalism::RelationalDiagrams,
                    "dfql" => VisFormalism::Dfql,
                    "qbe" => VisFormalism::Qbe,
                    "strings" => VisFormalism::StringDiagrams,
                    "visualsql" => VisFormalism::VisualSql,
                    "sqlvis" => VisFormalism::SqlVis,
                    "tabletalk" => VisFormalism::TableTalk,
                    "dataplay" => VisFormalism::DataPlay,
                    "sieuferd" => VisFormalism::Sieuferd,
                    "qbd" => VisFormalism::Qbd,
                    other => return Err(format!("unknown formalism `{other}`")),
                };
            }
            "--db" => db_path = Some(it.next().ok_or("--db needs a file path")?),
            _ => positional.push(a),
        }
    }
    let db: Database = match db_path {
        Some(p) => {
            let text =
                std::fs::read_to_string(&p).map_err(|e| format!("reading {p}: {e}"))?;
            relviz::model::text::parse_database(&text).map_err(|e| e.to_string())?
        }
        None => sailors_sample(),
    };
    // `--threads` may precede or follow `--engine parallel`; `exec` is
    // one worker whatever `--threads` says.
    let options = ExecOptions { threads: if parallel { threads } else { 1 }, opt };

    let cmd = positional.first().map(String::as_str).unwrap_or("help");
    match cmd {
        "show" => {
            let sql = positional.get(1).ok_or("usage: relviz show \"<SQL>\"")?;
            let viz = QueryVisualizer::new(formalism, Backend::Ascii);
            let out = viz.visualize(sql, &db).map_err(|e| e.to_string())?;
            println!("{}", out.trc);
            println!("{}", out.rendering);
            Ok(())
        }
        "svg" => {
            let sql = positional.get(1).ok_or("usage: relviz svg \"<SQL>\" out.svg")?;
            let path = positional.get(2).ok_or("usage: relviz svg \"<SQL>\" out.svg")?;
            let viz = QueryVisualizer::new(formalism, Backend::Svg);
            let out = viz.visualize(sql, &db).map_err(|e| e.to_string())?;
            std::fs::write(path, &out.rendering).map_err(|e| e.to_string())?;
            println!("wrote {path}");
            Ok(())
        }
        "trans" => {
            let sql = positional.get(1).ok_or("usage: relviz trans \"<SQL>\"")?;
            let trc =
                relviz::rc::from_sql::parse_sql_to_trc(sql, &db).map_err(|e| e.to_string())?;
            println!("TRC:     {trc}");
            match relviz::rc::to_drc::trc_to_drc(&trc, &db) {
                Ok(drc) => println!("DRC:     {drc}"),
                Err(e) => println!("DRC:     ({e})"),
            }
            match relviz::rc::to_ra::trc_to_ra(&trc, &db) {
                Ok(ra) => {
                    let opt = relviz::ra::rewrite::optimize(&ra);
                    println!("RA:      {}", relviz::ra::print::print_ra_unicode(&opt));
                    match relviz::datalog::translate::ra_to_datalog(&opt, &db) {
                        Ok(p) => println!("Datalog:\n{p}"),
                        Err(e) => println!("Datalog: ({e})"),
                    }
                }
                Err(e) => println!("RA:      ({e})"),
            }
            Ok(())
        }
        "check" => check(&db, &lang, suite, positional.get(1).map(String::as_str), opt),
        "serve" => {
            let config = ServerConfig { threads, default_opt: opt, ..ServerConfig::default() };
            serve(db, stdio, port, config)
        }
        "run" => {
            let query = positional.get(1).ok_or("usage: relviz run \"<query>\"")?;
            match lang.as_str() {
                "sql" => {
                    // The interactive path runs on the physical engine by
                    // default; `--engine reference` restores the oracle.
                    let viz = QueryVisualizer::new(formalism, Backend::Ascii)
                        .with_engine(engine)
                        .with_options(options);
                    run_sql(query, &db, &viz, verify, analyze, &stats_json)
                }
                "datalog" => {
                    run_datalog(query, &db, engine, options, verify, analyze, &stats_json)
                }
                other => Err(format!(
                    "run evaluates --lang sql or datalog, not `{other}` \
                     (use `check` for ra/trc plans)"
                )),
            }
        }
        "matrix" => {
            use relviz::diagrams::capability::{try_build, Capability, Formalism};
            print!("{:22}", "");
            for q in relviz::core::suite::SUITE {
                print!(" {:>4}", q.id);
            }
            println!();
            for f in Formalism::ALL {
                print!("{:22}", f.name());
                for q in relviz::core::suite::SUITE {
                    let mark = match try_build(f, q.sql, &db) {
                        Ok(Capability::Drawable { .. }) => "✓",
                        Ok(Capability::DrawableVia { .. }) => "(✓)",
                        Ok(Capability::Unsupported { .. }) => "—",
                        Err(_) => "!",
                    };
                    print!(" {mark:>4}");
                }
                println!();
            }
            Ok(())
        }
        _ => {
            println!(
                "relviz — diagrammatic representations of relational queries\n\n\
                 usage:\n  relviz show   \"<SQL>\"          ASCII diagram\n  \
                 relviz svg    \"<SQL>\" out.svg  SVG diagram\n  \
                 relviz trans  \"<SQL>\"          the query in TRC/DRC/RA/Datalog\n  \
                 relviz run    \"<query>\"        evaluate on the database (--verify checks first,\n                                 --analyze prints EXPLAIN ANALYZE, --lang sql|datalog)\n  \
                 relviz check  \"<query>\"        verify the plan without running (--lang, --suite)\n  \
                 relviz matrix                  expressiveness matrix\n  \
                 relviz serve  --stdio|--port N resident query service (relviz-wire-v1,\n                                 --db preloads `default`, --threads, --no-opt)\n\n\
                 options: --formalism queryvis|reldiag|dfql|qbe|strings|visualsql|\n                          sqlvis|tabletalk|dataplay|sieuferd|qbd, --db <file>,\n                          --engine exec|parallel|reference (run defaults to exec),\n                          --threads N (for --engine parallel; 0 = auto),\n                          --lang sql|ra|trc|datalog (check/run input language),\n                          --suite (check every suite query in RA, TRC and Datalog),\n                          --analyze (run with per-operator runtime stats),\n                          --stats-json <file> (write the stats as JSON; implies --analyze),\n                          --no-opt (disable join reordering + magic sets for A/B debugging)"
            );
            Ok(())
        }
    }
}

/// `relviz serve`: the resident query service. `--stdio` answers
/// `relviz-wire-v1` frames on stdin/stdout (one session); `--port N`
/// accepts TCP connections on 127.0.0.1, one thread per connection,
/// all sharing the catalog and the prepared-plan cache. The `--db`
/// database (default: the sailors sample) is preloaded as `default`;
/// `--threads` pins the parallel width, `--no-opt` sets the default
/// optimizer configuration — each request can still override both.
fn serve(db: Database, stdio: bool, port: Option<u16>, config: ServerConfig) -> Result<(), String> {
    let server = Server::new(config);
    server.catalog().load("default", db);
    if stdio {
        return server.serve_stdio().map_err(|e| e.to_string());
    }
    let Some(port) = port else {
        return Err("usage: relviz serve --stdio | relviz serve --port N".to_string());
    };
    let listener = std::net::TcpListener::bind(("127.0.0.1", port))
        .map_err(|e| format!("binding 127.0.0.1:{port}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    eprintln!("relviz: serving relviz-wire-v1 on {addr} ({} worker threads)", server.threads());
    std::sync::Arc::new(server).serve_listener(listener).map_err(|e| e.to_string())
}

/// `relviz run` on SQL: evaluate on the pipeline's engine, optionally
/// statically verified first (`--verify`) and/or instrumented
/// (`--analyze` / `--stats-json` — EXPLAIN ANALYZE).
fn run_sql(
    sql: &str,
    db: &Database,
    viz: &QueryVisualizer,
    verify: bool,
    analyze: bool,
    stats_json: &Option<String>,
) -> Result<(), String> {
    if verify {
        // `--verify`: statically check the plan before running.
        print!("{}", viz.check(sql, db).map_err(|e| e.to_string())?);
    }
    if analyze {
        let (rel, report) = viz.run_analyzed(sql, db).map_err(|e| e.to_string())?;
        print!("{rel}");
        println!("({} tuples)", rel.len());
        print!("{}", report.text);
        write_stats_json(stats_json, &report)?;
        return Ok(());
    }
    let rel = viz.run(sql, db).map_err(|e| e.to_string())?;
    print!("{rel}");
    println!("({} tuples)", rel.len());
    Ok(())
}

/// `relviz run --lang datalog`: evaluate a Datalog program's query
/// predicate on the chosen engine, with the same `--verify` /
/// `--analyze` / `--stats-json` composition as SQL.
fn run_datalog(
    src: &str,
    db: &Database,
    engine: Engine,
    options: ExecOptions,
    verify: bool,
    analyze: bool,
    stats_json: &Option<String>,
) -> Result<(), String> {
    use relviz::exec::{
        analyze_program, error_count, eval_datalog_analyzed_with, eval_datalog_with,
        plan_datalog_with, render_diagnostics, verification_footer, verify_fixpoint,
    };
    let prog = relviz::datalog::parse::parse_program(src).map_err(|e| e.to_string())?;
    if verify {
        let analysis = analyze_program(&prog, db);
        if error_count(&analysis) > 0 {
            return Err(render_diagnostics(&analysis));
        }
        print!("{}", render_diagnostics(&analysis)); // warnings, if any
        let plan = plan_datalog_with(&prog, db, options.opt).map_err(|e| e.to_string())?;
        let diags = verify_fixpoint(&plan, Some(db));
        print!("{}", verification_footer(plan.node_count(), &diags));
        if error_count(&diags) > 0 {
            return Err(format!("{} verification error(s)", error_count(&diags)));
        }
    }
    if analyze {
        let (rel, report) =
            eval_datalog_analyzed_with(engine, &prog, db, options).map_err(|e| e.to_string())?;
        print!("{rel}");
        println!("({} tuples)", rel.len());
        print!("{}", report.text);
        write_stats_json(stats_json, &report)?;
        return Ok(());
    }
    let rel = eval_datalog_with(engine, &prog, db, options).map_err(|e| e.to_string())?;
    print!("{rel}");
    println!("({} tuples)", rel.len());
    Ok(())
}

/// Writes a stats report's machine-readable form, if a path was given.
fn write_stats_json(
    path: &Option<String>,
    report: &relviz::exec::StatsReport,
) -> Result<(), String> {
    if let Some(p) = path {
        std::fs::write(p, report.to_json()).map_err(|e| format!("writing {p}: {e}"))?;
        eprintln!("relviz: wrote stats to {p}");
    }
    Ok(())
}

/// `relviz check`: plans without running, then walks the plan with the
/// static verifier. Exit status is keyed on **errors** — analyzer
/// *warnings* (style lints like cartesian products) print but pass.
fn check(
    db: &Database,
    lang: &str,
    suite: bool,
    query: Option<&str>,
    opt: OptConfig,
) -> Result<(), String> {
    use relviz::exec::{
        analyze_program, error_count, plan_datalog_with, plan_ra_with, plan_trc_with,
        render_diagnostics, verification_footer, verify_fixpoint, verify_plan,
    };
    if suite {
        let mut failed = 0usize;
        for q in relviz::core::suite::SUITE {
            print!("{:4}", q.id);
            // RA and TRC plans: the flat-operator verifier.
            let ra = relviz::ra::parse::parse_ra(q.ra).map_err(|e| format!("{}: {e}", q.id))?;
            let trc = relviz::rc::trc_parse::parse_trc(q.trc)
                .map_err(|e| format!("{}: {e}", q.id))?;
            for (name, plan) in
                [("ra", plan_ra_with(&ra, db, opt)), ("trc", plan_trc_with(&trc, db, opt))]
            {
                let plan = plan.map_err(|e| format!("{}: {e}", q.id))?;
                let diags = verify_plan(&plan, Some(db));
                let errs = error_count(&diags);
                failed += errs;
                match errs {
                    0 => print!("  {name} ✓ {:2} nodes", plan.node_count()),
                    n => print!("  {name} ✗ {n} error(s)"),
                }
            }
            // Datalog: program analyzer + fixpoint-plan verifier.
            let prog = relviz::datalog::parse::parse_program(q.datalog)
                .map_err(|e| format!("{}: {e}", q.id))?;
            let analysis = analyze_program(&prog, db);
            let mut errs = error_count(&analysis);
            let mut nodes = 0;
            if errs == 0 {
                let plan =
                    plan_datalog_with(&prog, db, opt).map_err(|e| format!("{}: {e}", q.id))?;
                errs += error_count(&verify_fixpoint(&plan, Some(db)));
                nodes = plan.node_count();
            }
            failed += errs;
            match errs {
                0 => println!("  datalog ✓ {nodes:2} nodes"),
                n => println!("  datalog ✗ {n} error(s)"),
            }
        }
        return match failed {
            0 => {
                println!("suite: every plan verifies clean");
                Ok(())
            }
            n => Err(format!("suite: {n} verification error(s)")),
        };
    }
    let query =
        query.ok_or("usage: relviz check \"<query>\" [--lang sql|ra|trc|datalog] | --suite")?;
    let (diags, nodes) = match lang {
        "sql" => {
            let viz = QueryVisualizer::new(VisFormalism::RelationalDiagrams, Backend::Ascii)
                .with_options(opt.into());
            print!("{}", viz.check(query, db).map_err(|e| e.to_string())?);
            return Ok(());
        }
        "ra" => {
            let expr = relviz::ra::parse::parse_ra(query).map_err(|e| e.to_string())?;
            let plan = plan_ra_with(&expr, db, opt).map_err(|e| e.to_string())?;
            (verify_plan(&plan, Some(db)), plan.node_count())
        }
        "trc" => {
            let trc = relviz::rc::trc_parse::parse_trc(query).map_err(|e| e.to_string())?;
            let plan = plan_trc_with(&trc, db, opt).map_err(|e| e.to_string())?;
            (verify_plan(&plan, Some(db)), plan.node_count())
        }
        "datalog" => {
            let prog =
                relviz::datalog::parse::parse_program(query).map_err(|e| e.to_string())?;
            let analysis = analyze_program(&prog, db);
            if error_count(&analysis) > 0 {
                return Err(render_diagnostics(&analysis));
            }
            print!("{}", render_diagnostics(&analysis)); // warnings, if any
            let plan = plan_datalog_with(&prog, db, opt).map_err(|e| e.to_string())?;
            (verify_fixpoint(&plan, Some(db)), plan.node_count())
        }
        other => return Err(format!("unknown language `{other}`")),
    };
    print!("{}", verification_footer(nodes, &diags));
    match error_count(&diags) {
        0 => Ok(()),
        n => Err(format!("{n} verification error(s)")),
    }
}
