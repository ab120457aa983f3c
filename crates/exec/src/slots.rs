//! Resident per-relation state: each base relation's columnar batch and
//! optimizer sketches, built once per database generation instead of
//! once per query.
//!
//! A [`Slots`] set holds one slot per relation of one database,
//! keyed by the relation's canonical (stored) name. A slot starts empty;
//! the first scan fills its batch ([`IndexedRelation::from_relation`])
//! and the first estimate fills its [`TableStats`]. Every later read of
//! the same generation gets a storage-sharing clone of the batch (so
//! join indexes built by one query serve the next) and the same
//! sketches. Because a slot belongs to the immutable data it describes,
//! no cache key can collide and no entry can outlive its data: the slot
//! is dropped with the last snapshot of its generation.
//!
//! Planners, the estimator and the executors read a [`Source`]: the
//! database plus its slots. A resident server pairs each catalog
//! snapshot with its own long-lived slots ([`Source::new`]); every
//! `&Database` entry point converts through [`From<&Database>`], which
//! makes a per-call slot set, so one-shot callers keep the old
//! once-per-query behaviour.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use relviz_model::{Database, Relation};

use crate::error::{ExecError, ExecResult};
use crate::indexed::IndexedRelation;
use crate::opt::TableStats;

/// One base relation's derived state, each part built on first use and
/// then shared by every reader of the generation.
#[derive(Debug, Default)]
struct Slot {
    batch: OnceLock<IndexedRelation>,
    stats: OnceLock<TableStats>,
}

/// The slots of one database generation, one per relation, keyed by
/// canonical relation name. (`Clone` copies the map, sharing every slot.)
#[derive(Debug, Clone)]
pub struct Slots(HashMap<String, Arc<Slot>>);

impl Slots {
    /// One empty slot per relation of `db`. Nothing is materialized.
    pub fn new(db: &Database) -> Slots {
        Slots(
            db.names()
                .map(|name| (name.to_string(), Arc::default()))
                .collect(),
        )
    }

    /// The slots of `db`, the next generation of the database `self`
    /// was built for: relations whose canonical name is in `touched`,
    /// and relations `self` has no slot for, get fresh empty slots;
    /// every other relation shares its slot (and whatever it already
    /// holds) with `self`.
    pub fn renewed(&self, db: &Database, touched: &[String]) -> Slots {
        Slots(
            db.names()
                .map(|name| {
                    let slot = match self.0.get(name) {
                        Some(slot) if !touched.iter().any(|t| t == name) => Arc::clone(slot),
                        _ => Arc::default(),
                    };
                    (name.to_string(), slot)
                })
                .collect(),
        )
    }
}

/// What planners, the estimator and the executors read: a database
/// together with the slots holding its resident batches and sketches.
#[derive(Debug)]
pub struct Source<'a> {
    db: &'a Database,
    slots: Cow<'a, Slots>,
}

impl<'a> Source<'a> {
    /// Pairs `db` with slots built for exactly this database
    /// ([`Slots::new`] or [`Slots::renewed`] on it). Slots of any other
    /// database would hand out that database's batches.
    pub fn new(db: &'a Database, slots: &'a Slots) -> Source<'a> {
        Source {
            db,
            slots: Cow::Borrowed(slots),
        }
    }

    pub fn db(&self) -> &'a Database {
        self.db
    }

    /// The slot and stored relation behind `name` (resolved like
    /// [`Database::relation`]).
    fn slot(&self, name: &str) -> ExecResult<(&Slot, &'a Relation)> {
        let rel = self
            .db
            .relation(name)
            .map_err(|e| ExecError::Eval(e.to_string()))?;
        let slot = self
            .db
            .canonical_name(name)
            .and_then(|canonical| self.slots.0.get(canonical))
            .ok_or_else(|| {
                ExecError::Eval(format!(
                    "no slot for relation `{name}`: slots of another database"
                ))
            })?;
        Ok((slot, rel))
    }

    /// Stored relation `name` as a batch: the resident one, materialized
    /// on first use, as a clone sharing its storage and index cache.
    pub(crate) fn batch(&self, name: &str) -> ExecResult<IndexedRelation> {
        let (slot, rel) = self.slot(name)?;
        Ok(slot
            .batch
            .get_or_init(|| IndexedRelation::from_relation(rel))
            .clone())
    }

    /// The sketches of stored relation `name`, collected on first use;
    /// `None` when no such relation is stored.
    pub(crate) fn stats(&self, name: &str) -> Option<&TableStats> {
        let (slot, rel) = self.slot(name).ok()?;
        Some(slot.stats.get_or_init(|| TableStats::collect(rel)))
    }
}

/// The per-call slot set: what every `&Database` entry point reads
/// through.
impl<'a> From<&'a Database> for Source<'a> {
    fn from(db: &'a Database) -> Source<'a> {
        Source {
            db,
            slots: Cow::Owned(Slots::new(db)),
        }
    }
}

/// A borrowed view of a source, so an entry point holding one can pass
/// it on without re-materializing anything.
impl<'a, 'b> From<&'b Source<'a>> for Source<'b> {
    fn from(src: &'b Source<'a>) -> Source<'b> {
        Source {
            db: src.db,
            slots: Cow::Borrowed(&src.slots),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::counters;
    use relviz_model::catalog::sailors_sample;

    /// How many slots hold a materialized batch.
    fn materialized(slots: &Slots) -> usize {
        slots
            .0
            .values()
            .filter(|slot| slot.batch.get().is_some())
            .count()
    }

    /// Whether `a` and `b` share the slot for `name`.
    fn shares(a: &Slots, b: &Slots, name: &str) -> bool {
        matches!((a.0.get(name), b.0.get(name)), (Some(x), Some(y)) if Arc::ptr_eq(x, y))
    }

    #[test]
    fn slots_fill_once_and_are_shared_by_every_read() {
        let db = sailors_sample();
        let slots = Slots::new(&db);
        assert_eq!(
            materialized(&slots),
            0,
            "creating slots materializes nothing"
        );
        counters::reset();
        let first = Source::new(&db, &slots).batch("Sailor").expect("stored");
        let again = Source::new(&db, &slots)
            .batch("sailor")
            .expect("case-insensitive");
        assert_eq!(counters::materializations(), 1);
        assert_eq!(materialized(&slots), 1);
        first.index(&[0]);
        again.index(&[0]);
        assert_eq!(
            counters::index_builds(),
            1,
            "indexes are shared across reads"
        );
        let src = Source::new(&db, &slots);
        assert!(std::ptr::eq(
            src.stats("Sailor").expect("stats"),
            src.stats("SAILOR").expect("stats")
        ));
        assert!(src.stats("Nope").is_none());
        assert!(src.batch("Nope").is_err());
    }

    #[test]
    fn renewed_slots_refresh_only_touched_relations() {
        let db = sailors_sample();
        let slots = Slots::new(&db);
        let src = Source::new(&db, &slots);
        for name in ["Sailor", "Reserves", "Boat"] {
            src.batch(name).expect("stored");
        }
        let next = slots.renewed(&db, &["Reserves".to_string()]);
        assert!(shares(&next, &slots, "Sailor") && shares(&next, &slots, "Boat"));
        assert!(!shares(&next, &slots, "Reserves"));
        assert_eq!(materialized(&next), 2);
    }

    #[test]
    fn per_call_sources_materialize_per_call() {
        let db = sailors_sample();
        counters::reset();
        Source::from(&db).batch("Boat").expect("stored");
        Source::from(&db).batch("Boat").expect("stored");
        assert_eq!(counters::materializations(), 2);
        let src = Source::from(&db);
        let view = Source::from(&src);
        view.batch("Boat").expect("stored");
        src.batch("Boat").expect("stored");
        assert_eq!(
            counters::materializations(),
            3,
            "a borrowed view shares the slots"
        );
    }
}
