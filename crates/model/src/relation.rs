//! Relations: schemas plus sets of tuples.
//!
//! Relations follow **set semantics** (as Relational Algebra, the calculi
//! and Datalog assume): tuples are stored in a `BTreeSet`, so iteration is
//! deterministic and results compare structurally.

use std::collections::BTreeSet;
use std::fmt;

use crate::error::{ModelError, Result};
use crate::schema::Schema;
use crate::tuple::{IntoTuple, Tuple};
use crate::value::Value;

/// A named-attribute relation with set semantics.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Relation {
    schema: Schema,
    tuples: BTreeSet<Tuple>,
}

impl Relation {
    /// An empty relation over `schema`.
    pub fn empty(schema: Schema) -> Self {
        Relation { schema, tuples: BTreeSet::new() }
    }

    /// Builds a relation and inserts the given rows, checking arity/types.
    pub fn from_rows<T: IntoTuple>(schema: Schema, rows: Vec<T>) -> Result<Self> {
        let mut r = Relation::empty(schema);
        for row in rows {
            r.insert(row.into_tuple())?;
        }
        Ok(r)
    }

    /// The Boolean TRUE relation: zero-ary with the single empty tuple.
    pub fn boolean_true() -> Self {
        let mut r = Relation::empty(Schema::empty());
        r.tuples.insert(Tuple::new(vec![]));
        r
    }

    /// The Boolean FALSE relation: zero-ary and empty.
    pub fn boolean_false() -> Self {
        Relation::empty(Schema::empty())
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Deterministic (sorted) iteration.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    pub fn contains(&self, t: &Tuple) -> bool {
        self.tuples.contains(t)
    }

    /// Inserts a tuple after validating arity and types.
    /// Returns `Ok(true)` if the tuple was new.
    pub fn insert(&mut self, t: Tuple) -> Result<bool> {
        check_row(&self.schema, &t)?;
        Ok(self.tuples.insert(t))
    }

    /// Inserts without validation; used by evaluators whose output schema is
    /// correct by construction.
    pub fn insert_unchecked(&mut self, t: Tuple) -> bool {
        debug_assert_eq!(t.arity(), self.schema.arity());
        self.tuples.insert(t)
    }

    /// Builds a relation from a whole batch of rows without validation,
    /// in one bulk set construction (sort + bulk build) instead of
    /// per-tuple tree inserts — the fast path for evaluators converting
    /// a large correct-by-construction batch back to set semantics.
    /// Duplicates collapse as always.
    pub fn from_tuples_unchecked(schema: Schema, rows: Vec<Tuple>) -> Self {
        debug_assert!(rows.iter().all(|t| t.arity() == schema.arity()));
        Relation { schema, tuples: rows.into_iter().collect() }
    }

    /// Replaces the schema with an equally-shaped one (rename operations).
    pub fn with_schema(self, schema: Schema) -> Result<Self> {
        if schema.arity() != self.schema.arity() {
            return Err(ModelError::ArityMismatch {
                expected: self.schema.arity(),
                got: schema.arity(),
            });
        }
        Ok(Relation { schema, tuples: self.tuples })
    }

    /// All distinct values appearing in this relation (its active domain).
    pub fn active_domain(&self) -> BTreeSet<Value> {
        let mut dom = BTreeSet::new();
        for t in &self.tuples {
            for v in t.values() {
                dom.insert(v.clone());
            }
        }
        dom
    }

    /// All distinct values of one attribute.
    pub fn column_values(&self, attr: &str) -> Result<BTreeSet<Value>> {
        let idx = self
            .schema
            .index_of(attr)
            .ok_or_else(|| ModelError::UnknownAttribute(attr.to_string()))?;
        Ok(self.tuples.iter().map(|t| t.values()[idx].clone()).collect())
    }

    /// Structural equality ignoring attribute names (same arity, same tuple
    /// set) — the right notion for comparing query answers across languages
    /// whose output naming conventions differ.
    ///
    /// Tuples compare by the same total order that governs set membership
    /// (`Ord`), not by derived `PartialEq` — the two differ on float edge
    /// values (a relation containing `NaN` must still equal itself).
    pub fn same_contents(&self, other: &Relation) -> bool {
        self.schema.arity() == other.schema.arity()
            && self.tuples.len() == other.tuples.len()
            && self
                .tuples
                .iter()
                .zip(&other.tuples)
                .all(|(a, b)| a.cmp(b) == std::cmp::Ordering::Equal)
    }
}

/// The arity and type check [`Relation::insert`] applies to a row.
pub(crate) fn check_row(schema: &Schema, t: &Tuple) -> Result<()> {
    if t.arity() != schema.arity() {
        return Err(ModelError::ArityMismatch { expected: schema.arity(), got: t.arity() });
    }
    for (v, a) in t.values().iter().zip(schema.attrs()) {
        if !v.conforms_to(a.ty) {
            return Err(ModelError::TypeMismatch {
                attr: a.name.clone(),
                expected: a.ty.to_string(),
                got: v.data_type().to_string(),
            });
        }
    }
    Ok(())
}

impl fmt::Display for Relation {
    /// Pretty-prints as an aligned text table.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let headers: Vec<String> = self.schema.attrs().iter().map(|a| a.name.clone()).collect();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        let rows: Vec<Vec<String>> = self
            .tuples
            .iter()
            .map(|t| t.values().iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, c) in cells.iter().enumerate() {
                write!(f, " {:<w$} |", c, w = widths[i])?;
            }
            writeln!(f)
        };
        line(f, &headers)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{}|", "-".repeat(w + 2))?;
        }
        writeln!(f)?;
        for row in &rows {
            line(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;

    fn rel() -> Relation {
        Relation::from_rows(
            Schema::of(&[("sid", DataType::Int), ("sname", DataType::Str)]),
            vec![(1, "a"), (2, "b"), (1, "a")],
        )
        .unwrap()
    }

    #[test]
    fn set_semantics_dedups() {
        assert_eq!(rel().len(), 2);
    }

    #[test]
    fn insert_validates_arity_and_types() {
        let mut r = rel();
        assert!(matches!(
            r.insert(Tuple::of((1,))),
            Err(ModelError::ArityMismatch { .. })
        ));
        assert!(matches!(
            r.insert(Tuple::of(("oops", "b"))),
            Err(ModelError::TypeMismatch { .. })
        ));
        assert!(r.insert(Tuple::of((Value::Null, Value::Null))).unwrap());
    }

    #[test]
    fn boolean_relations() {
        assert_eq!(Relation::boolean_true().len(), 1);
        assert!(Relation::boolean_false().is_empty());
        assert_eq!(Relation::boolean_true().schema().arity(), 0);
    }

    #[test]
    fn active_domain_and_columns() {
        let r = rel();
        let dom = r.active_domain();
        assert!(dom.contains(&Value::Int(1)));
        assert!(dom.contains(&Value::str("b")));
        assert_eq!(r.column_values("sid").unwrap().len(), 2);
        assert!(r.column_values("ghost").is_err());
    }

    /// Regression: comparison must follow the set's own total order —
    /// under derived `PartialEq`, a NaN-holding relation was unequal to
    /// an identical copy of itself.
    #[test]
    fn same_contents_follows_the_total_order() {
        let schema = Schema::of(&[("x", DataType::Float)]);
        let r = Relation::from_rows(schema, vec![(f64::NAN,), (1.0,)]).unwrap();
        assert!(r.same_contents(&r.clone()));
    }

    #[test]
    fn same_contents_ignores_names() {
        let a = rel();
        let b = Relation::from_rows(
            Schema::of(&[("x", DataType::Int), ("y", DataType::Str)]),
            vec![(2, "b"), (1, "a")],
        )
        .unwrap();
        assert!(a.same_contents(&b));
    }

    #[test]
    fn display_is_aligned() {
        let s = rel().to_string();
        assert!(s.starts_with("| sid | sname |"));
        assert!(s.contains("| 1   | a     |"));
    }
}
