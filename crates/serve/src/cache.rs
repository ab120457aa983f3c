//! The **prepared-plan cache**: parsing + planning amortized across a
//! resident server's lifetime.
//!
//! Keys are `(db name, db generation, language, engine, opt
//! config, query text)` — the generation component means a catalog
//! mutation (load / insert / drop + reload) invalidates every cached
//! plan for that database *by construction*: the old entries simply
//! stop being looked up and age out of the LRU. [`PlanCache::purge_db`]
//! additionally drops them eagerly on mutation so a hot server doesn't
//! carry dead plans until capacity pressure evicts them.
//!
//! Physical plans are immutable once built, so entries hand out
//! `Arc`s and concurrent requests share one plan without copying.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use relviz_datalog::Program;
use relviz_exec::{Engine, FixpointPlan, OptConfig, PhysPlan};

/// Which front-end language produced the plan (part of the cache key:
/// the same text could be valid SQL and TRC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lang {
    Sql,
    Trc,
    Datalog,
}

/// A fully keyed cache entry address.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    pub db: String,
    pub generation: u64,
    pub lang: Lang,
    /// [`Engine::name`]. The worker width is not part of the key: every
    /// width of the physical engine runs the same [`PhysPlan`], so one
    /// entry serves them all. Reference never reaches the cache.
    pub engine: &'static str,
    pub reorder: bool,
    pub magic: bool,
    pub query: String,
}

impl PlanKey {
    pub fn new(
        db: &str,
        generation: u64,
        lang: Lang,
        engine: Engine,
        cfg: OptConfig,
        query: &str,
    ) -> PlanKey {
        PlanKey {
            db: db.to_string(),
            generation,
            lang,
            engine: engine.name(),
            reorder: cfg.reorder,
            magic: cfg.magic,
            query: query.to_string(),
        }
    }
}

/// A prepared, immutable, shareable plan.
#[derive(Clone)]
pub enum Prepared {
    /// A one-shot physical plan (SQL and TRC requests).
    Plan(Arc<PhysPlan>),
    /// A stratified fixpoint plan plus the predicate the request
    /// projects out of the fixpoint result. When the magic-sets
    /// transform fired, `plan` is the *transformed* program's plan and
    /// `program` keeps the original for the defensive untransformed
    /// fallback (mirroring `eval_datalog_with`).
    Fixpoint { plan: Arc<FixpointPlan>, query_pred: String, program: Arc<Program> },
}

struct Slot {
    prepared: Prepared,
    last_used: u64,
}

/// Point-in-time cache counters (exposed over the wire in `stats`
/// frames and pinned by the invalidation tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub len: usize,
    pub hits: u64,
    pub misses: u64,
}

struct CacheState {
    map: HashMap<PlanKey, Slot>,
    tick: u64,
    hits: u64,
    misses: u64,
}

/// A bounded LRU of prepared plans.
pub struct PlanCache {
    state: Mutex<CacheState>,
    cap: usize,
}

impl PlanCache {
    /// Default capacity: plenty for a query suite, small enough that a
    /// pathological client cycling unique query texts stays bounded.
    pub const DEFAULT_CAP: usize = 512;

    pub fn new(cap: usize) -> PlanCache {
        PlanCache {
            state: Mutex::new(CacheState { map: HashMap::new(), tick: 0, hits: 0, misses: 0 }),
            cap: cap.max(1),
        }
    }

    /// Looks up `key`, counting a hit or a miss.
    pub fn get(&self, key: &PlanKey) -> Option<Prepared> {
        let mut state = self.state.lock();
        state.tick += 1;
        let tick = state.tick;
        match state.map.get_mut(key) {
            Some(slot) => {
                slot.last_used = tick;
                let prepared = slot.prepared.clone();
                state.hits += 1;
                Some(prepared)
            }
            None => {
                state.misses += 1;
                None
            }
        }
    }

    /// Inserts a freshly prepared plan, evicting the least recently
    /// used entry when full.
    pub fn put(&self, key: PlanKey, prepared: Prepared) {
        let mut state = self.state.lock();
        state.tick += 1;
        let tick = state.tick;
        if !state.map.contains_key(&key) && state.map.len() >= self.cap {
            if let Some(victim) = state
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| k.clone())
            {
                state.map.remove(&victim);
            }
        }
        state.map.insert(key, Slot { prepared, last_used: tick });
    }

    /// Eagerly drops every entry for a database, across generations —
    /// called on load / insert / drop so mutated catalogs don't hold
    /// dead plans until LRU pressure finds them.
    pub fn purge_db(&self, db: &str) -> usize {
        let mut state = self.state.lock();
        let before = state.map.len();
        state.map.retain(|k, _| k.db != db);
        before - state.map.len()
    }

    pub fn stats(&self) -> CacheStats {
        let state = self.state.lock();
        CacheStats { len: state.map.len(), hits: state.hits, misses: state.misses }
    }
}

impl Default for PlanCache {
    fn default() -> PlanCache {
        PlanCache::new(PlanCache::DEFAULT_CAP)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relviz_exec::plan_trc_with;
    use relviz_model::catalog::sailors_sample;
    use relviz_rc::trc_parse::parse_trc;

    fn prepared() -> Prepared {
        let db = sailors_sample();
        let q = parse_trc("{ s.sname | Sailor(s) }").expect("parses");
        let plan = plan_trc_with(&q, &db, OptConfig::optimized()).expect("plans");
        Prepared::Plan(Arc::new(plan))
    }

    fn key(db: &str, generation: u64, query: &str) -> PlanKey {
        PlanKey::new(db, generation, Lang::Trc, Engine::Indexed, OptConfig::optimized(), query)
    }

    #[test]
    fn hit_miss_accounting_and_generation_invalidation() {
        let cache = PlanCache::new(8);
        let k0 = key("default", 0, "q");
        assert!(cache.get(&k0).is_none());
        cache.put(k0.clone(), prepared());
        assert!(cache.get(&k0).is_some());
        // Same text, newer generation: a distinct key, so a miss —
        // generation bumps invalidate without any explicit flush.
        assert!(cache.get(&key("default", 1, "q")).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (1, 2, 1));
    }

    #[test]
    fn lru_eviction_is_bounded_and_keeps_the_warm_entry() {
        let cache = PlanCache::new(4);
        let warm = key("default", 0, "warm");
        cache.put(warm.clone(), prepared());
        for i in 0..32 {
            assert!(cache.get(&warm).is_some(), "warm entry evicted at i={i}");
            cache.put(key("default", 0, &format!("q{i}")), prepared());
        }
        assert!(cache.stats().len <= 4);
        assert!(cache.get(&warm).is_some());
    }

    #[test]
    fn purge_drops_only_the_named_db() {
        let cache = PlanCache::new(8);
        cache.put(key("a", 0, "q1"), prepared());
        cache.put(key("a", 1, "q2"), prepared());
        cache.put(key("b", 0, "q1"), prepared());
        assert_eq!(cache.purge_db("a"), 2);
        assert_eq!(cache.stats().len, 1);
        assert!(cache.get(&key("b", 0, "q1")).is_some());
    }
}
