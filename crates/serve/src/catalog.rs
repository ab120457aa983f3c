//! The server's **catalog**: named databases held behind `Arc`s with a
//! monotone per-database generation counter.
//!
//! Every query takes a [`Snapshot`] — an `Arc` clone of the database,
//! the generation it was taken at, and that generation's
//! [`Slots`] — so execution never holds the catalog lock and never
//! observes a half-applied mutation: loads, inserts and drops swap the
//! snapshot under a write lock while in-flight queries keep reading the
//! one they started with.
//!
//! The slots hold each relation's columnar batch and optimizer
//! sketches, built on the first read that needs them and shared by
//! every later request on the generation. A `load` starts with empty
//! slots; an `insert` gives the relations it touches fresh slots and
//! shares the rest with the previous generation. Neither materializes
//! anything.
//!
//! Generations are **monotone per name for the life of the process**,
//! across drops and re-loads: the prepared-plan cache keys on
//! `(…, generation)`, and a generation that could regress would revive
//! stale plans.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;
use relviz_exec::{Slots, Source};
use relviz_model::Database;

/// A point-in-time view of one named database.
#[derive(Clone)]
pub struct Snapshot {
    pub db: Arc<Database>,
    pub generation: u64,
    /// The resident batches and sketches of `db`'s relations.
    slots: Arc<Slots>,
}

impl Snapshot {
    /// What planners and executors read: the database with this
    /// generation's slots.
    pub fn source(&self) -> Source<'_> {
        Source::new(&self.db, &self.slots)
    }
}

/// One catalog row in a listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogRow {
    pub name: String,
    pub generation: u64,
    pub relations: usize,
    pub tuples: usize,
}

#[derive(Default)]
struct CatalogState {
    dbs: HashMap<String, Snapshot>,
    /// Last generation ever assigned per name — survives drops so a
    /// re-loaded name continues monotonically.
    gens: HashMap<String, u64>,
}

/// The named-database catalog.
#[derive(Default)]
pub struct Catalog {
    state: RwLock<CatalogState>,
}

impl Catalog {
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Creates or replaces a database wholesale, bumping its
    /// generation. Returns the new generation.
    pub fn load(&self, name: &str, db: Database) -> u64 {
        let slots = Arc::new(Slots::new(&db));
        let mut state = self.state.write();
        let generation = Self::next_gen(&mut state, name);
        state
            .dbs
            .insert(name.to_string(), Snapshot { db: Arc::new(db), generation, slots });
        generation
    }

    /// Unions the relations of `fragment` into `name`'s database:
    /// existing relations (schemas must agree) receive the new tuples,
    /// new relations are added. Copy-on-write — in-flight snapshots are
    /// untouched. The relations the fragment names (matched by
    /// canonical name, however the fragment spells them) get fresh
    /// slots; the others keep theirs. Returns the new generation.
    pub fn insert(&self, name: &str, fragment: &Database) -> Result<u64, String> {
        let mut state = self.state.write();
        let current = state
            .dbs
            .get(name)
            .ok_or_else(|| format!("unknown database `{name}`"))?;
        let mut next: Database = (*current.db).clone();
        let mut touched = Vec::new();
        for rel_name in fragment.names() {
            let incoming = fragment.relation(rel_name).map_err(|e| e.to_string())?;
            match next.relation_mut(rel_name) {
                Ok(existing) => {
                    if existing.schema() != incoming.schema() {
                        return Err(format!(
                            "insert into `{rel_name}`: schema mismatch (existing {:?})",
                            existing.schema().attrs().iter().map(|a| &a.name).collect::<Vec<_>>()
                        ));
                    }
                    for t in incoming.iter() {
                        existing.insert(t.clone()).map_err(|e| e.to_string())?;
                    }
                }
                Err(_) => next.set(rel_name.to_string(), incoming.clone()),
            }
            touched.push(next.canonical_name(rel_name).unwrap_or(rel_name).to_string());
        }
        let slots = Arc::new(current.slots.renewed(&next, &touched));
        let generation = Self::next_gen(&mut state, name);
        state
            .dbs
            .insert(name.to_string(), Snapshot { db: Arc::new(next), generation, slots });
        Ok(generation)
    }

    /// Removes a database. Its generation counter is retained so a
    /// later re-load stays monotone. Returns whether it existed.
    pub fn drop_db(&self, name: &str) -> bool {
        self.state.write().dbs.remove(name).is_some()
    }

    /// The current snapshot of `name`, if loaded.
    pub fn get(&self, name: &str) -> Option<Snapshot> {
        self.state.read().dbs.get(name).cloned()
    }

    /// A sorted listing of every loaded database.
    pub fn list(&self) -> Vec<CatalogRow> {
        let state = self.state.read();
        let mut rows: Vec<CatalogRow> = state
            .dbs
            .iter()
            .map(|(name, snap)| CatalogRow {
                name: name.clone(),
                generation: snap.generation,
                relations: snap.db.len(),
                tuples: snap.db.total_tuples(),
            })
            .collect();
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        rows
    }

    fn next_gen(state: &mut CatalogState, name: &str) -> u64 {
        let gen = state.gens.entry(name.to_string()).or_insert(0);
        let assigned = *gen;
        *gen += 1;
        assigned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relviz_model::catalog::sailors_sample;
    use relviz_model::text::parse_database;

    #[test]
    fn load_get_drop_roundtrip() {
        let cat = Catalog::new();
        assert!(cat.get("default").is_none());
        assert_eq!(cat.load("default", sailors_sample()), 0);
        let snap = cat.get("default").expect("loaded");
        assert_eq!(snap.generation, 0);
        assert!(snap.db.contains("Sailor"));
        assert!(cat.drop_db("default"));
        assert!(!cat.drop_db("default"));
        assert!(cat.get("default").is_none());
    }

    #[test]
    fn generations_are_monotone_across_reload_and_drop() {
        let cat = Catalog::new();
        assert_eq!(cat.load("g", sailors_sample()), 0);
        assert_eq!(cat.load("g", sailors_sample()), 1);
        assert!(cat.drop_db("g"));
        // A re-load after a drop must NOT restart at 0 — the plan cache
        // keys on (name, generation) and would revive stale plans.
        assert_eq!(cat.load("g", sailors_sample()), 2);
    }

    #[test]
    fn insert_is_copy_on_write_and_bumps_the_generation() {
        let cat = Catalog::new();
        cat.load("g", parse_database("relation R(a:int, b:int)\n1, 2\n").unwrap());
        let before = cat.get("g").expect("snapshot");
        let frag = parse_database("relation R(a:int, b:int)\n3, 4\n").unwrap();
        assert_eq!(cat.insert("g", &frag).expect("inserts"), 1);
        let after = cat.get("g").expect("snapshot");
        // The old snapshot is untouched; the new one has the union.
        assert_eq!(before.db.relation("R").unwrap().len(), 1);
        assert_eq!(after.db.relation("R").unwrap().len(), 2);
        assert_eq!(after.generation, 1);
        // New relations are added wholesale.
        let frag2 = parse_database("relation S(x:int)\n9\n").unwrap();
        cat.insert("g", &frag2).expect("adds S");
        assert!(cat.get("g").expect("snapshot").db.contains("S"));
    }

    #[test]
    fn insert_rejects_schema_mismatch_and_unknown_db() {
        let cat = Catalog::new();
        cat.load("g", parse_database("relation R(a:int)\n1\n").unwrap());
        let bad = parse_database("relation R(a:str)\n'x'\n").unwrap();
        assert!(cat.insert("g", &bad).is_err());
        assert!(cat.insert("nope", &bad).unwrap_err().contains("unknown database"));
    }

    #[test]
    fn listing_is_sorted_and_counts_tuples() {
        let cat = Catalog::new();
        cat.load("b", parse_database("relation R(a:int)\n1\n2\n").unwrap());
        cat.load("a", sailors_sample());
        let rows = cat.list();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "a");
        assert_eq!(rows[1].name, "b");
        assert_eq!(rows[1].tuples, 2);
        assert_eq!(rows[1].relations, 1);
    }
}
