//! The show_gallery subject: one SQL query rendered to SVG in every
//! formalism through `QueryVisualizer::visualize`, with fresh
//! visualizers per op so every rendering runs the whole pipeline.

use std::collections::HashMap;
use std::sync::Arc;

use relviz_core::pipeline::{Backend, PipelineOutput, QueryVisualizer, VisFormalism};
use relviz_diagrams::capability::{try_build, Capability, Formalism};
use relviz_diagrams::{
    dataplay, dfql, qbd, qbe, queryvis, reldiag, sieuferd, sqlvis, stringdiag, tabletalk,
    visualsql, DiagError, DiagResult,
};
use relviz_model::text::parse_database;
use relviz_model::Database;
use relviz_render::Scene;

use crate::harness::{Facts, Subject};
use crate::ident::Fnv64;
use crate::trace::Tracer;
use crate::workload::{Op, Request, Workload};

/// The system under test: the parsed sailors database.
pub struct Gallery {
    db: Database,
}

/// One op's outcome per formalism, in `VisFormalism::ALL` order.
pub type Renderings = Vec<DiagResult<Arc<PipelineOutput>>>;

fn sql_of(op: &Op) -> &str {
    debug_assert!(
        matches!(op.request, Request::Render),
        "show_gallery only sends render ops"
    );
    &op.line
}

impl Subject for Gallery {
    type Out = Renderings;
    type Checker = GalleryOracle;
    type Replica = Gallery;
    type Replayed = Vec<DiagResult<String>>;

    fn setup(w: &Workload) -> (Gallery, Vec<(Op, Renderings)>) {
        let db = parse_database(&w.db_text).expect("the workload's database text parses");
        let gallery = Gallery { db };
        let outs = w
            .setup_ops()
            .into_iter()
            .map(|op| {
                let out = gallery.run(&op);
                (op, out)
            })
            .collect();
        (gallery, outs)
    }

    fn run(&self, op: &Op) -> Renderings {
        let sql = sql_of(op);
        VisFormalism::ALL
            .iter()
            .map(|&f| QueryVisualizer::new(f, Backend::Svg).visualize(sql, &self.db))
            .collect()
    }

    fn checker(w: &Workload) -> GalleryOracle {
        GalleryOracle {
            db: w.base.clone(),
            refusals: HashMap::new(),
            renderings: HashMap::new(),
        }
    }

    fn fork(oracle: &GalleryOracle) -> GalleryOracle {
        oracle.clone()
    }

    fn check(oracle: &mut GalleryOracle, op: &Op, out: &Renderings) -> Result<(), String> {
        oracle.check(sql_of(op), out)
    }

    fn replica(w: &Workload) -> Gallery {
        Gallery {
            db: parse_database(&w.db_text).expect("the workload's database text parses"),
        }
    }

    fn replay(
        replica: &mut Gallery,
        tr: &mut Tracer,
        op: &Op,
        facts: &mut Facts,
    ) -> Self::Replayed {
        let sql = sql_of(op);
        let out: Self::Replayed = VisFormalism::ALL
            .iter()
            .map(|&f| {
                let open = tr.begin("core.pipeline");
                let result = pipeline(tr, f, sql, &replica.db);
                tr.end(open);
                result
            })
            .collect();
        facts.refusals = Some(
            out.iter()
                .filter(|r| matches!(r, Err(DiagError::Unsupported { .. })))
                .count(),
        );
        facts.bytes_out = out.iter().map(|r| r.as_ref().map_or(0, String::len)).sum();
        out
    }

    fn compare(replayed: &Self::Replayed, out: &Renderings) -> Result<(), String> {
        for ((f, mine), theirs) in VisFormalism::ALL.iter().zip(replayed).zip(out) {
            let same = match (mine, theirs) {
                (Ok(svg), Ok(o)) => *svg == o.rendering,
                (Err(mine), Err(theirs)) => mine.to_string() == theirs.to_string(),
                _ => false,
            };
            if !same {
                return Err(format!(
                    "{}: replayed rendering differs from visualize's",
                    f.name()
                ));
            }
        }
        Ok(())
    }
}

/// `QueryVisualizer::visualize` on a fresh visualizer, call by call,
/// with a span around each call into a layer.
fn pipeline(tr: &mut Tracer, f: VisFormalism, sql: &str, db: &Database) -> DiagResult<String> {
    let parsed = tr
        .leaf("sql.parse", || relviz_sql::parse_query(sql))
        .map_err(|e| DiagError::Lang(e.to_string()))?;
    let canonical = tr.leaf("sql.print", || relviz_sql::print_query(&parsed));
    let trc = tr.leaf("rc.from_sql", || {
        relviz_rc::from_sql::sql_to_trc(&parsed, db)
    })?;
    let scene = build_scene(tr, f, &canonical, &trc, db)?;
    let svg = tr.leaf("render.svg", || relviz_render::svg::to_svg(&scene));
    // `visualize` keeps the TRC text in its output.
    std::hint::black_box(trc.to_string());
    Ok(svg)
}

/// The pipeline's per-formalism scene construction: translation, diagram
/// build, then layout into a scene.
fn build_scene(
    tr: &mut Tracer,
    f: VisFormalism,
    sql: &str,
    trc: &relviz_rc::TrcQuery,
    db: &Database,
) -> DiagResult<Scene> {
    fn scene<D>(tr: &mut Tracer, d: D, to_scene: impl FnOnce(&D) -> Scene) -> Scene {
        tr.leaf("diagrams.scene", || to_scene(&d))
    }
    let build = "diagrams.build";
    Ok(match f {
        VisFormalism::QueryVis => {
            let d = tr.leaf(build, || queryvis::QueryVisDiagram::from_trc(trc, db))?;
            scene(tr, d, |d| d.scene())
        }
        VisFormalism::RelationalDiagrams => {
            let d = tr.leaf(build, || reldiag::RelationalDiagram::from_trc(trc, db))?;
            scene(tr, d, |d| d.scene())
        }
        VisFormalism::Dfql => {
            let ra = tr.leaf("rc.translate", || {
                relviz_rc::to_ra::trc_to_ra(trc, db).map(|ra| relviz_ra::rewrite::optimize(&ra))
            })?;
            let d = tr.leaf(build, || dfql::DfqlDiagram::from_ra(&ra))?;
            scene(tr, d, |d| d.scene())
        }
        VisFormalism::Qbe => {
            let prog = tr.leaf("rc.translate", || -> DiagResult<_> {
                let ra = relviz_rc::to_ra::trc_to_ra(trc, db)?;
                Ok(relviz_datalog::translate::ra_to_datalog(&ra, db)?)
            })?;
            let d = tr.leaf(build, || qbe::QbeProgram::from_datalog(&prog, db))?;
            scene(tr, d, |d| d.scene())
        }
        VisFormalism::StringDiagrams => {
            let drc = tr.leaf("rc.translate", || relviz_rc::to_drc::trc_to_drc(trc, db))?;
            let d = tr.leaf(build, || stringdiag::StringDiagram::from_drc(&drc))?;
            scene(tr, d, |d| d.scene())
        }
        VisFormalism::VisualSql => {
            let d = tr.leaf(build, || visualsql::VisualSqlDiagram::from_sql(sql, db))?;
            scene(tr, d, |d| d.scene())
        }
        VisFormalism::SqlVis => {
            let d = tr.leaf(build, || sqlvis::SqlVisDiagram::from_sql(sql, db))?;
            scene(tr, d, |d| d.scene())
        }
        VisFormalism::TableTalk => {
            let d = tr.leaf(build, || tabletalk::TableTalkDiagram::from_sql(sql, db))?;
            scene(tr, d, |d| d.scene())
        }
        VisFormalism::DataPlay => {
            let d = tr.leaf(build, || dataplay::DataPlayTree::from_trc(trc, db))?;
            scene(tr, d, |d| d.scene())
        }
        VisFormalism::Sieuferd => {
            let d = tr.leaf(build, || sieuferd::SieuferdSheet::from_sql(sql, db))?;
            scene(tr, d, |d| d.scene())
        }
        VisFormalism::Qbd => {
            let d = tr.leaf(build, || {
                qbd::QbdQuery::from_sql(sql, &qbd::ErSchema::sailors(), db)
            })?;
            scene(tr, d, |d| d.scene())
        }
    })
}

/// The capability probe's name for each pipeline formalism.
fn probe_of(f: VisFormalism) -> Formalism {
    match f {
        VisFormalism::QueryVis => Formalism::QueryVis,
        VisFormalism::RelationalDiagrams => Formalism::RelationalDiagrams,
        VisFormalism::Dfql => Formalism::Dfql,
        VisFormalism::Qbe => Formalism::Qbe,
        VisFormalism::StringDiagrams => Formalism::StringDiagrams,
        VisFormalism::VisualSql => Formalism::VisualSql,
        VisFormalism::SqlVis => Formalism::SqlVis,
        VisFormalism::TableTalk => Formalism::TableTalk,
        VisFormalism::DataPlay => Formalism::DataPlay,
        VisFormalism::Sieuferd => Formalism::Sieuferd,
        VisFormalism::Qbd => Formalism::Qbd,
    }
}

/// Expectations for renderings: well-formed SVG, byte-identical across
/// repeats of a query, and refusals exactly where the capability probe
/// (`diagrams::capability::try_build`) reports the formalism cannot
/// represent the query.
#[derive(Clone)]
pub struct GalleryOracle {
    db: Database,
    /// Per query: whether each formalism refuses it.
    refusals: HashMap<String, Vec<bool>>,
    /// Per (query, formalism): hash of the first rendering seen.
    renderings: HashMap<(String, usize), String>,
}

impl GalleryOracle {
    fn check(&mut self, sql: &str, out: &Renderings) -> Result<(), String> {
        let db = &self.db;
        let expected = self.refusals.entry(sql.to_string()).or_insert_with(|| {
            VisFormalism::ALL
                .iter()
                .map(|&f| {
                    matches!(
                        try_build(probe_of(f), sql, db),
                        Ok(Capability::Unsupported { .. })
                    )
                })
                .collect()
        });
        for (i, (f, result)) in VisFormalism::ALL.iter().zip(out).enumerate() {
            let refused = match result {
                Ok(o) => {
                    well_formed_svg(&o.rendering)
                        .map_err(|e| format!("{}: malformed SVG: {e}", f.name()))?;
                    let mut h = Fnv64::new();
                    h.write(o.rendering.as_bytes());
                    let first = self
                        .renderings
                        .entry((sql.to_string(), i))
                        .or_insert_with(|| h.hex());
                    if *first != h.hex() {
                        return Err(format!("{}: rendering changed between repeats", f.name()));
                    }
                    false
                }
                Err(DiagError::Unsupported { .. }) => true,
                Err(e) => return Err(format!("{}: {e}", f.name())),
            };
            if refused != expected[i] {
                return Err(format!(
                    "{}: pipeline {} but the capability probe {}",
                    f.name(),
                    if refused { "refused" } else { "rendered" },
                    if expected[i] { "refuses" } else { "draws" }
                ));
            }
        }
        Ok(())
    }
}

/// A well-formedness check for the SVG the renderer emits: one root
/// `<svg>` element, balanced and properly nested tags, quoted
/// attributes, and only the predefined or numeric entities.
pub fn well_formed_svg(doc: &str) -> Result<(), String> {
    let mut rest = doc.trim();
    if rest.starts_with("<?xml") {
        let end = rest.find("?>").ok_or("unterminated XML declaration")?;
        rest = rest[end + 2..].trim_start();
    }
    if !rest.starts_with("<svg") {
        return Err("document does not start with <svg".into());
    }
    let mut stack: Vec<&str> = Vec::new();
    let mut closed_root = false;
    while let Some(lt) = rest.find('<') {
        let text = &rest[..lt];
        if closed_root && !text.trim().is_empty() {
            return Err("content after the root element".into());
        }
        check_entities(text)?;
        rest = &rest[lt..];
        if let Some(body) = rest.strip_prefix("<!--") {
            let end = body.find("-->").ok_or("unterminated comment")?;
            rest = &body[end + 3..];
            continue;
        }
        if closed_root {
            return Err("a second root element".into());
        }
        let end = tag_end(rest).ok_or("unterminated tag")?;
        let tag = &rest[1..end];
        rest = &rest[end + 1..];
        if let Some(name) = tag.strip_prefix('/') {
            match stack.pop() {
                Some(open) if open == name.trim() => {}
                other => {
                    return Err(format!(
                        "</{}> closes <{}>",
                        name.trim(),
                        other.unwrap_or("nothing")
                    ))
                }
            }
        } else {
            let self_closing = tag.ends_with('/');
            let tag = tag.trim_end_matches('/');
            let name_end = tag.find(|c: char| c.is_whitespace()).unwrap_or(tag.len());
            let name = &tag[..name_end];
            if name.is_empty()
                || !name
                    .chars()
                    .all(|c| c.is_alphanumeric() || "-_:.".contains(c))
            {
                return Err(format!("bad element name `{name}`"));
            }
            check_attributes(&tag[name_end..])?;
            if !self_closing {
                stack.push(name);
            }
        }
        closed_root = stack.is_empty();
    }
    if !stack.is_empty() {
        return Err(format!("unclosed <{}>", stack.join("> <")));
    }
    if !closed_root || !rest.trim().is_empty() {
        return Err("text after the root element".into());
    }
    Ok(())
}

/// Index of the `>` ending the tag that starts `s`, skipping quoted
/// attribute values.
fn tag_end(s: &str) -> Option<usize> {
    let mut quote = None;
    for (i, c) in s.char_indices().skip(1) {
        match (quote, c) {
            (None, '"' | '\'') => quote = Some(c),
            (Some(q), c) if c == q => quote = None,
            (None, '>') => return Some(i),
            (None, '<') => return None,
            _ => {}
        }
    }
    None
}

fn check_attributes(mut attrs: &str) -> Result<(), String> {
    loop {
        attrs = attrs.trim_start();
        if attrs.is_empty() {
            return Ok(());
        }
        let eq = attrs
            .find('=')
            .ok_or_else(|| format!("attribute without value near `{attrs}`"))?;
        let name = attrs[..eq].trim();
        if name.is_empty() || name.contains(char::is_whitespace) {
            return Err(format!("bad attribute name `{name}`"));
        }
        let value = attrs[eq + 1..].trim_start();
        let q = value
            .chars()
            .next()
            .filter(|c| *c == '"' || *c == '\'')
            .ok_or("unquoted attribute")?;
        let close = value[1..].find(q).ok_or("unterminated attribute value")?;
        let v = &value[1..1 + close];
        if v.contains('<') {
            return Err("`<` in an attribute value".into());
        }
        check_entities(v)?;
        attrs = &value[close + 2..];
    }
}

fn check_entities(text: &str) -> Result<(), String> {
    let mut rest = text;
    while let Some(amp) = rest.find('&') {
        let after = &rest[amp + 1..];
        let semi = after.find(';').ok_or("unterminated entity")?;
        let name = &after[..semi];
        let ok = matches!(name, "amp" | "lt" | "gt" | "quot" | "apos")
            || name
                .strip_prefix("#x")
                .is_some_and(|h| !h.is_empty() && h.chars().all(|c| c.is_ascii_hexdigit()))
            || name
                .strip_prefix('#')
                .is_some_and(|d| !d.is_empty() && d.chars().all(|c| c.is_ascii_digit()));
        if !ok {
            return Err(format!("unknown entity `&{name};`"));
        }
        rest = &after[semi + 1..];
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_well_formed_svg() {
        let doc = "<?xml version=\"1.0\"?>\n<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"10\">\
                   <!-- c --><g><rect x='1' y=\"2\"/><text>a &lt; b &amp; &#955;</text></g></svg>\n";
        assert_eq!(well_formed_svg(doc), Ok(()));
    }

    #[test]
    fn rejects_malformed_svg() {
        for bad in [
            "<g></g>",
            "<svg><g></svg>",
            "<svg><g></g>",
            "<svg><text>a & b</text></svg>",
            "<svg><rect x=1/></svg>",
            "<svg></svg><svg></svg>",
            "<svg><rect x=\"1></svg>",
            "<svg></svg>trailing",
        ] {
            assert!(well_formed_svg(bad).is_err(), "accepted {bad}");
        }
    }
}
