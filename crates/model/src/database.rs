//! An in-memory database: a set of named relations.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use crate::error::{ModelError, Result};
use crate::relation::Relation;
use crate::schema::Schema;
use crate::value::Value;

/// A database instance mapping relation names to [`Relation`]s.
///
/// Names are case-sensitive; lookup falls back to a case-insensitive match
/// so SQL's conventional case-insensitivity works without surprises.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Database {
    relations: BTreeMap<String, Relation>,
}

impl Database {
    pub fn new() -> Self {
        Database::default()
    }

    /// Adds a relation, rejecting duplicates (also case-insensitive ones).
    pub fn add(&mut self, name: impl Into<String>, rel: Relation) -> Result<()> {
        let name = name.into();
        if self.resolve_name(&name).is_some() {
            return Err(ModelError::DuplicateRelation(name));
        }
        self.relations.insert(name, rel);
        Ok(())
    }

    /// Adds or replaces a relation (used for views / temp relations).
    pub fn set(&mut self, name: impl Into<String>, rel: Relation) {
        let name = name.into();
        if let Some(canonical) = self.resolve_name(&name) {
            self.relations.insert(canonical, rel);
        } else {
            self.relations.insert(name, rel);
        }
    }

    /// Resolves `name` to the stored (canonical) name.
    fn resolve_name(&self, name: &str) -> Option<String> {
        if self.relations.contains_key(name) {
            return Some(name.to_string());
        }
        self.relations
            .keys()
            .find(|k| k.eq_ignore_ascii_case(name))
            .cloned()
    }

    pub fn relation(&self, name: &str) -> Result<&Relation> {
        if let Some(r) = self.relations.get(name) {
            return Ok(r);
        }
        let canonical = self
            .resolve_name(name)
            .ok_or_else(|| ModelError::UnknownRelation(name.to_string()))?;
        Ok(&self.relations[&canonical])
    }

    /// The stored (canonical) spelling of `name`, resolved the way
    /// [`relation`](Self::relation) resolves it: exact match first, then
    /// case-insensitive.
    pub fn canonical_name(&self, name: &str) -> Option<&str> {
        if let Some((stored, _)) = self.relations.get_key_value(name) {
            return Some(stored);
        }
        self.relations
            .keys()
            .find(|k| k.eq_ignore_ascii_case(name))
            .map(String::as_str)
    }

    /// Mutable access to relation `name`, resolved like
    /// [`relation`](Self::relation).
    pub fn relation_mut(&mut self, name: &str) -> Result<&mut Relation> {
        let canonical = self
            .resolve_name(name)
            .ok_or_else(|| ModelError::UnknownRelation(name.to_string()))?;
        self.relations
            .get_mut(&canonical)
            .ok_or(ModelError::UnknownRelation(canonical))
    }

    pub fn schema(&self, name: &str) -> Result<&Schema> {
        Ok(self.relation(name)?.schema())
    }

    pub fn contains(&self, name: &str) -> bool {
        self.resolve_name(name).is_some()
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(|s| s.as_str())
    }

    pub fn len(&self) -> usize {
        self.relations.len()
    }

    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// The active domain of the whole database: every constant appearing in
    /// any relation. This is the domain the Domain Relational Calculus
    /// quantifies over under the active-domain semantics, which makes safe
    /// RC queries computable.
    pub fn active_domain(&self) -> BTreeSet<Value> {
        let mut dom = BTreeSet::new();
        for r in self.relations.values() {
            dom.extend(r.active_domain());
        }
        dom
    }

    /// Total number of tuples across relations (workload size metric).
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;

    fn db() -> Database {
        let mut db = Database::new();
        db.add(
            "R",
            Relation::from_rows(Schema::of(&[("a", DataType::Int)]), vec![(1,), (2,)]).unwrap(),
        )
        .unwrap();
        db
    }

    #[test]
    fn add_and_lookup_case_insensitive() {
        let db = db();
        assert!(db.relation("R").is_ok());
        assert!(db.relation("r").is_ok());
        assert!(db.relation("S").is_err());
    }

    #[test]
    fn duplicate_rejected_case_insensitive() {
        let mut db = db();
        let r = Relation::empty(Schema::of(&[("a", DataType::Int)]));
        assert!(db.add("r", r.clone()).is_err());
        assert!(db.add("R", r).is_err());
    }

    #[test]
    fn canonical_name_and_relation_mut_resolve_case_insensitively() {
        let mut db = db();
        assert_eq!(db.canonical_name("r"), Some("R"));
        assert_eq!(db.canonical_name("S"), None);
        db.relation_mut("r")
            .unwrap()
            .insert(crate::Tuple::of((3,)))
            .unwrap();
        assert_eq!(db.relation("R").unwrap().len(), 3);
        assert!(db.relation_mut("S").is_err());
    }

    #[test]
    fn set_replaces_canonically() {
        let mut db = db();
        db.set("r", Relation::empty(Schema::of(&[("a", DataType::Int)])));
        assert_eq!(db.len(), 1);
        assert!(db.relation("R").unwrap().is_empty());
    }

    #[test]
    fn active_domain_spans_relations() {
        let mut db = db();
        db.add(
            "S",
            Relation::from_rows(Schema::of(&[("b", DataType::Str)]), vec![("x",)]).unwrap(),
        )
        .unwrap();
        let dom = db.active_domain();
        assert!(dom.contains(&Value::Int(1)));
        assert!(dom.contains(&Value::str("x")));
        assert_eq!(db.total_tuples(), 3);
    }
}
