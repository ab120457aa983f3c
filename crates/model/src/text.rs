//! A tiny line-oriented text format for relations and databases, used for
//! golden files and example data.
//!
//! ```text
//! # comment
//! relation Sailor(sid:int, sname:str, rating:int, age:float)
//! 22, dustin, 7, 45.0
//! 31, lubber, 8, 55.5
//!
//! relation Boat(bid:int, bname:str, color:str)
//! 101, Interlake, blue
//! ```
//!
//! Values are parsed according to the declared column type; strings may be
//! single-quoted to preserve commas and spaces; `NULL` is the null literal.

use std::borrow::Cow;

use crate::database::Database;
use crate::error::{ModelError, Result};
use crate::relation::{check_row, Relation};
use crate::schema::{Attribute, DataType, Schema};
use crate::tuple::Tuple;
use crate::value::Value;

/// Parses a whole database from the text format.
///
/// Rows are split into cells borrowed from `input`; only a cell with
/// quotes in it is copied, to drop them. Each relation's rows are
/// checked as [`Relation::insert`] checks them and collected, and the
/// set is built once at the end (duplicates collapse as on insert).
pub fn parse_database(input: &str) -> Result<Database> {
    let mut db = Database::new();
    let mut current: Option<(String, Schema, Vec<Tuple>)> = None;
    let mut cells: Vec<Cow<'_, str>> = Vec::new();

    for (lineno, raw) in input.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("relation ") {
            if let Some((name, schema, rows)) = current.take() {
                db.add(name, Relation::from_tuples_unchecked(schema, rows))?;
            }
            let (name, schema) = parse_header(rest, lineno)?;
            current = Some((name, schema, Vec::new()));
        } else {
            let (_, schema, rows) = current
                .as_mut()
                .ok_or_else(|| err(lineno, "data row before any `relation` header"))?;
            split_row(line, &mut cells);
            let tuple = parse_row(&mut cells, schema, lineno)?;
            check_row(schema, &tuple)?;
            rows.push(tuple);
        }
    }
    if let Some((name, schema, rows)) = current {
        db.add(name, Relation::from_tuples_unchecked(schema, rows))?;
    }
    Ok(db)
}

/// Serializes a database to the text format (round-trips with
/// [`parse_database`]).
pub fn dump_database(db: &Database) -> String {
    let mut out = String::new();
    for name in db.names() {
        let rel = db.relation(name).expect("name comes from the db");
        out.push_str("relation ");
        out.push_str(name);
        out.push('(');
        for (i, a) in rel.schema().attrs().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{}:{}", a.name, a.ty));
        }
        out.push_str(")\n");
        for t in rel.iter() {
            let cells: Vec<String> = t
                .values()
                .iter()
                .map(|v| match v {
                    Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
                    other => other.to_string(),
                })
                .collect();
            out.push_str(&cells.join(", "));
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

fn err(lineno: usize, msg: impl Into<String>) -> ModelError {
    ModelError::Parse(format!("line {}: {}", lineno + 1, msg.into()))
}

fn parse_header(rest: &str, lineno: usize) -> Result<(String, Schema)> {
    let open = rest.find('(').ok_or_else(|| err(lineno, "missing `(` in relation header"))?;
    let close = rest.rfind(')').ok_or_else(|| err(lineno, "missing `)` in relation header"))?;
    let name = rest[..open].trim().to_string();
    if name.is_empty() {
        return Err(err(lineno, "empty relation name"));
    }
    let mut attrs = Vec::new();
    let body = rest[open + 1..close].trim();
    if !body.is_empty() {
        for part in body.split(',') {
            let mut it = part.splitn(2, ':');
            let aname = it.next().unwrap_or("").trim();
            let tyname = it
                .next()
                .ok_or_else(|| err(lineno, format!("attribute `{part}` lacks `:type`")))?
                .trim();
            let ty = match tyname {
                "int" => DataType::Int,
                "float" => DataType::Float,
                "str" => DataType::Str,
                "bool" => DataType::Bool,
                "any" => DataType::Any,
                other => return Err(err(lineno, format!("unknown type `{other}`"))),
            };
            attrs.push(Attribute::new(aname, ty));
        }
    }
    Ok((name, Schema::new(attrs)?))
}

fn parse_row(cells: &mut Vec<Cow<'_, str>>, schema: &Schema, lineno: usize) -> Result<Tuple> {
    if cells.len() != schema.arity() {
        return Err(ModelError::ArityMismatch { expected: schema.arity(), got: cells.len() });
    }
    let mut values = Vec::with_capacity(cells.len());
    for (cell, attr) in cells.drain(..).zip(schema.attrs()) {
        values.push(parse_value(cell, attr.ty, lineno)?);
    }
    Ok(Tuple::new(values))
}

/// Splits a row into `cells` on the commas outside single quotes, each
/// cell trimmed. A cell with a quote in it is unquoted: its quotes go,
/// and a doubled `''` inside quotes stands for one `'`.
fn split_row<'a>(line: &'a str, cells: &mut Vec<Cow<'a, str>>) {
    cells.clear();
    let (mut start, mut in_quote, mut quoted) = (0, false, false);
    // Byte offsets of ASCII `'` and `,` are always char boundaries. A
    // doubled `''` toggles twice, so the quote state between cells is
    // the same as when it is read as one escaped quote.
    for (i, b) in line.bytes().enumerate() {
        match b {
            b'\'' => (in_quote, quoted) = (!in_quote, true),
            b',' if !in_quote => {
                cells.push(cell(&line[start..i], quoted));
                (start, quoted) = (i + 1, false);
            }
            _ => {}
        }
    }
    cells.push(cell(&line[start..], quoted));
}

/// One cell's text: borrowed and trimmed, or unquoted when `quoted`.
/// A cell that is one quoted string without inner quotes is the common
/// quoted case (`dump_database` writes every string so) and stays
/// borrowed too.
fn cell(raw: &str, quoted: bool) -> Cow<'_, str> {
    if !quoted {
        return Cow::Borrowed(raw.trim());
    }
    let plain = raw.trim().strip_prefix('\'').and_then(|r| r.strip_suffix('\''));
    if let Some(inner) = plain.filter(|inner| !inner.contains('\'')) {
        return Cow::Borrowed(inner.trim());
    }
    let mut out = String::with_capacity(raw.len());
    let mut in_quote = false;
    let mut chars = raw.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '\'' if in_quote && chars.peek() == Some(&'\'') => {
                out.push('\'');
                chars.next();
            }
            '\'' => in_quote = !in_quote,
            _ => out.push(c),
        }
    }
    match out.trim() {
        t if t.len() == out.len() => Cow::Owned(out),
        t => Cow::Owned(t.to_string()),
    }
}

fn parse_value(cell: Cow<'_, str>, ty: DataType, lineno: usize) -> Result<Value> {
    if cell == "NULL" {
        return Ok(Value::Null);
    }
    let v = match ty {
        DataType::Int => Value::Int(
            cell.parse::<i64>()
                .map_err(|_| err(lineno, format!("`{cell}` is not an int")))?,
        ),
        DataType::Float => Value::Float(
            cell.parse::<f64>()
                .map_err(|_| err(lineno, format!("`{cell}` is not a float")))?,
        ),
        DataType::Bool => match cell.as_ref() {
            "true" | "TRUE" => Value::Bool(true),
            "false" | "FALSE" => Value::Bool(false),
            _ => return Err(err(lineno, format!("`{cell}` is not a bool"))),
        },
        DataType::Str | DataType::Any => Value::Str(cell.into_owned()),
    };
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::sailors_sample;

    const SAMPLE: &str = "\
# demo
relation R(a:int, b:str)
1, hello
2, 'with, comma'
3, 'it''s quoted'

relation Empty(x:float)
";

    #[test]
    fn parses_relations_and_quoting() {
        let db = parse_database(SAMPLE).unwrap();
        let r = db.relation("R").unwrap();
        assert_eq!(r.len(), 3);
        assert!(r.contains(&Tuple::of((2, "with, comma"))));
        assert!(r.contains(&Tuple::of((3, "it's quoted"))));
        assert!(db.relation("Empty").unwrap().is_empty());
    }

    #[test]
    fn round_trip() {
        let db = sailors_sample();
        let text = dump_database(&db);
        let back = parse_database(&text).unwrap();
        assert_eq!(db, back);
    }

    #[test]
    fn errors_are_located() {
        let bad = "relation R(a:int)\nnot_an_int";
        let e = parse_database(bad).unwrap_err();
        assert!(e.to_string().contains("not an int"), "{e}");

        let e2 = parse_database("1, 2").unwrap_err();
        assert!(e2.to_string().contains("before any"), "{e2}");
    }

    #[test]
    fn null_literal() {
        let db = parse_database("relation R(a:int, b:str)\nNULL, NULL").unwrap();
        let r = db.relation("R").unwrap();
        assert!(r.contains(&Tuple::new(vec![Value::Null, Value::Null])));
    }

    #[test]
    fn header_errors() {
        assert!(parse_database("relation (a:int)").is_err());
        assert!(parse_database("relation R(a)").is_err());
        assert!(parse_database("relation R(a:intx)").is_err());
    }

    /// The parser as it was before cells were borrowed, kept as the
    /// oracle: it copies every cell into a `String` and inserts each row
    /// into the relation's set as it goes.
    fn oracle_parse_database(input: &str) -> Result<Database> {
        fn parse_row(line: &str, schema: &Schema, lineno: usize) -> Result<Tuple> {
            let cells = split_row(line);
            if cells.len() != schema.arity() {
                let (expected, got) = (schema.arity(), cells.len());
                return Err(ModelError::ArityMismatch { expected, got });
            }
            let mut values = Vec::with_capacity(cells.len());
            for (cell, attr) in cells.iter().zip(schema.attrs()) {
                values.push(parse_value(Cow::Borrowed(cell), attr.ty, lineno)?);
            }
            Ok(Tuple::new(values))
        }

        fn split_row(line: &str) -> Vec<String> {
            let mut cells = Vec::new();
            let mut cur = String::new();
            let mut in_quote = false;
            let mut chars = line.chars().peekable();
            while let Some(c) = chars.next() {
                match c {
                    '\'' if in_quote && chars.peek() == Some(&'\'') => {
                        cur.push('\'');
                        chars.next();
                    }
                    '\'' => in_quote = !in_quote,
                    ',' if !in_quote => {
                        cells.push(cur.trim().to_string());
                        cur = String::new();
                    }
                    _ => cur.push(c),
                }
            }
            cells.push(cur.trim().to_string());
            cells
        }

        let mut db = Database::new();
        let mut current: Option<(String, Relation)> = None;
        for (lineno, raw) in input.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(rest) = line.strip_prefix("relation ") {
                if let Some((name, rel)) = current.take() {
                    db.add(name, rel)?;
                }
                let (name, schema) = parse_header(rest, lineno)?;
                current = Some((name, Relation::empty(schema)));
            } else {
                let (_, rel) = current
                    .as_mut()
                    .ok_or_else(|| err(lineno, "data row before any `relation` header"))?;
                let tuple = parse_row(line, rel.schema(), lineno)?;
                rel.insert(tuple)?;
            }
        }
        if let Some((name, rel)) = current {
            db.add(name, rel)?;
        }
        Ok(db)
    }

    /// Both parsers give the same database, or the same error text.
    fn assert_matches_oracle(text: &str) {
        match (parse_database(text), oracle_parse_database(text)) {
            (Ok(ours), Ok(oracle)) => {
                assert_eq!(ours, oracle, "{text}");
                // Equal under the total order is not enough: cells must
                // come out with the same variants and spellings.
                assert_eq!(format!("{ours:?}"), format!("{oracle:?}"), "{text}");
            }
            (Err(ours), Err(oracle)) => assert_eq!(ours.to_string(), oracle.to_string(), "{text}"),
            (ours, oracle) => panic!("{text}\nours: {ours:?}\noracle: {oracle:?}"),
        }
    }

    #[test]
    fn matches_the_oracle_on_generated_databases() {
        use crate::generate::{generate_sailors, GenConfig};
        let mut dbs = vec![sailors_sample()];
        dbs.extend([40, 1000].map(|n| generate_sailors(&GenConfig::scaled(n))));
        for db in dbs {
            let text = dump_database(&db);
            assert_matches_oracle(&text);
            assert_eq!(parse_database(&text).unwrap(), db, "round trip");
            // Every row twice: duplicates collapse on both paths.
            let doubled: String = text.lines().flat_map(|l| [l, "\n", l, "\n"]).collect();
            assert_matches_oracle(&doubled);
        }
    }

    #[test]
    fn matches_the_oracle_on_quoting_edge_cases() {
        let rows = [
            "1, hello",
            "2, 'with, comma'",
            "3, 'it''s quoted'",
            "4,   '  padded  '  ",
            "5, ''",
            "6, ''''",
            "7, it''s",
            "8, 'unterminated, cell",
            "9, a'b,c'd",
            "10, 'NULL'",
            "11, NULL",
            "12, 'a' 'b'",
            " 13 , ' x , y ' ",
            "14, 'ü''ß', ",
            "15, é",
            "16,,",
            "17",
            "x, y",
            "'18', y",
            "19, 'a''', b",
            "1, hello",
        ];
        let mut all = String::from("relation R(a:int, b:str)\n");
        for row in rows {
            assert_matches_oracle(&format!("relation R(a:int, b:str)\n{row}\n"));
            assert_matches_oracle(&format!("relation R(a:int, b:any)\n{row}\n"));
            all.push_str(row);
            all.push('\n');
        }
        assert_matches_oracle(&all);
        for text in [
            "relation T(f:float, b:bool)\n1.5, true\nNaN, FALSE\n-0.0, TRUE\n1, false\n-nan, true",
            "relation T(f:float)\n1.5.2",
            "relation T(b:bool)\nyes",
            "relation T(a:int)\n9999999999999999999",
            "relation T(a:int)\n1\nrelation T(a:int)\n2",
            "relation T(a:int)\n1\nrelation t(b:str)\nx",
            "# only a comment\n\n",
            "relation E()\n",
            "1, 2",
        ] {
            assert_matches_oracle(text);
        }
    }
}
