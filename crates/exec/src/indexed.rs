//! [`IndexedRelation`]: a materialized batch of rows that maintains hash
//! indexes on join-key column sets — on **shared, cheaply-clonable,
//! column-major storage**.
//!
//! This is the operand type of the physical operators: every operator
//! produces one, and the join operators ask their build side for an index
//! on the key columns (built once, cached, reused by every probe).
//! Unlike [`relviz_model::Relation`] the row store is a sequence, so
//! operators may produce transient duplicates; explicit `Dedup` plan nodes
//! (and the final conversion back to a set-semantics `Relation`) restore
//! set semantics where it matters.
//!
//! ## Sharing model
//!
//! Rows live in an `Arc`'d [`ColumnStore`] (one typed vector per column —
//! see [`crate::column`] for the batch layout) and the index map behind an
//! `Arc<Mutex<…>>`, so `clone()` is a handful of pointer bumps — no cell
//! or index data moves. This is what makes the executor's scan cache and
//! the fixpoint's `ScanIdb`/`ScanDelta` views zero-copy: every view of a
//! batch shares both the rows and the cached indexes. Within the store,
//! each column sits behind its own `Arc`, so projections re-order columns
//! without touching cells.
//!
//! Sharing the index map cuts the other way too: an index built through
//! *any* view (e.g. a join indexing a `ScanIdb` view mid-fixpoint) lands
//! in the owning batch's cache and is maintained by later
//! [`absorb_store`](IndexedRelation::absorb_store) appends — so a
//! fixpoint round never rebuilds a join index over the accumulated IDB.
//! The one invariant this needs is that a batch only *grows* while no
//! sibling view is alive; the absorb methods enforce it defensively by
//! detaching (copy-on-write) storage, index map, and dedup table when
//! the store `Arc` is still shared, so a violated invariant costs a
//! copy, never correctness. (Column-level sharing self-repairs one layer
//! down: appending through a column `Arc` some projection still holds
//! detaches just that column.)
//!
//! ## Row ids
//!
//! Index buckets, dedup buckets, and delta lists all store
//! [`RowId`] (`u32`) row numbers. Appends go through the checked
//! [`row_id`](crate::column::row_id) conversion, which panics rather
//! than truncating if a batch outgrows the width — see the
//! [`crate::column`] docs for the width decision.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use relviz_model::{Relation, Schema, Tuple, Value, ValueRef};

use crate::column::{row_id, ColumnStore, RowId};
use crate::stats::counters;

/// A join key: a projected value vector compared by the **total order**
/// of [`Value`] (the order behind the model's set semantics and
/// `CmpOp::apply`), not by the derived `PartialEq`. The two differ on
/// the numeric edge cases — `Int 1` vs `Float 1.0`, `NaN` vs an
/// identical `NaN` — and the reference evaluators' comparisons follow
/// the total order, so join-key matching must too. `Value`'s `Hash` is
/// already consistent with this equality (order-equal values hash
/// equally).
#[derive(Debug, Clone)]
pub struct JoinKey(Vec<Value>);

impl JoinKey {
    pub fn new(values: Vec<Value>) -> Self {
        JoinKey(values)
    }

    /// An empty key with room for `cols` values — the reusable buffer
    /// for the `refill` methods.
    pub fn with_capacity(cols: usize) -> Self {
        JoinKey(Vec::with_capacity(cols))
    }

    /// Clears and refills the key in place from `tuple`'s `cols`. Probe
    /// loops run once per row: reusing one buffer skips the per-row
    /// allocation a fresh [`IndexedRelation::key_of`] would pay. (The
    /// row-major twin of [`refill_from`](Self::refill_from), kept for
    /// the benchmark baselines.)
    // Key columns are pre-checked against the batch arity by the executor.
    #[allow(clippy::indexing_slicing)]
    pub fn refill(&mut self, tuple: &Tuple, cols: &[usize]) {
        self.0.clear();
        self.0.extend(cols.iter().map(|&i| tuple.values()[i].clone()));
    }

    /// [`refill`](Self::refill) straight off a column store's row.
    pub fn refill_from(&mut self, store: &ColumnStore, row: usize, cols: &[usize]) {
        self.0.clear();
        self.0.extend(cols.iter().map(|&i| store.get(i, row).to_value()));
    }
}

impl PartialEq for JoinKey {
    fn eq(&self, other: &Self) -> bool {
        self.0.len() == other.0.len()
            && self.0.iter().zip(&other.0).all(|(a, b)| a.cmp(b) == std::cmp::Ordering::Equal)
    }
}

impl Eq for JoinKey {}

impl std::hash::Hash for JoinKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

/// `rustc`'s FxHash: a multiplicative word-at-a-time hasher, several
/// times faster than the default SipHash on the short [`JoinKey`]s the
/// engine hashes in every probe, dedup, and index-maintenance step. Not
/// DoS-resistant — fine for an in-process engine hashing data it
/// already holds. Bucket order never reaches results (probe loops
/// iterate the probe batch, and buckets keep insertion order), so
/// switching hashers is invisible to output.
///
/// Width audit (all conversions below are non-truncating on every
/// supported target): `u8`/`u32` → `u64` widen; `usize` → `u64` widens
/// on ≤ 64-bit targets; `i64` → `u64` is a deliberate bit-cast (hashing
/// wants the bits, not the magnitude).
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl std::hash::Hasher for FxHasher {
    #[inline]
    // Chunked exactly on 8-byte boundaries; the tail read is `< 8` bytes.
    #[allow(clippy::indexing_slicing)]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }
    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.add(v as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

pub(crate) type FxBuild = std::hash::BuildHasherDefault<FxHasher>;

/// A hash index on one key-column set: key values → row numbers.
pub type Index = HashMap<JoinKey, Vec<RowId>, FxBuild>;

/// key columns → the (Arc-shared) index on them.
type IndexMap = HashMap<Vec<usize>, Arc<Index>, FxBuild>;

/// (key columns, partition count) → the partitioned index on them.
type PartMap = HashMap<(Vec<usize>, usize), Arc<PartitionedIndex>, FxBuild>;

/// The 64-bit key hash partitioning and probing agree on (FxHash over
/// the key's values — the same equality-consistent hash the flat
/// [`Index`] buckets by).
fn key_hash(key: &JoinKey) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = FxHasher::default();
    key.hash(&mut h);
    h.finish()
}

/// [`key_hash`] computed straight off a store row's key columns — no
/// [`JoinKey`] (no value clones) is built. Must stay byte-compatible
/// with hashing the built key: a `Vec<Value>`'s `Hash` writes the
/// length prefix (via `write_usize` on this hasher) and then each
/// element, which is exactly what this does —
/// [`ValueRef::total_hash`] writes the same bytes as [`Value`]'s
/// `Hash` arm for arm.
pub(crate) fn key_hash_at(store: &ColumnStore, row: usize, cols: &[usize]) -> u64 {
    use std::hash::Hasher;
    let mut h = FxHasher::default();
    h.write_usize(cols.len());
    for &i in cols {
        store.get(i, row).total_hash(&mut h);
    }
    h.finish()
}

/// The partition owning `hash` among `parts` equal **hash ranges**
/// (multiply-shift: partition `p` owns `[p·2⁶⁴/parts, (p+1)·2⁶⁴/parts)`).
/// Width audit: the `u128` product of two 64-bit factors is exact, and
/// the shifted result is `< parts ≤ usize::MAX`, so the final narrowing
/// is lossless on 32-bit targets too.
pub(crate) fn hash_partition(hash: u64, parts: usize) -> usize {
    ((hash as u128 * parts as u128) >> 64) as usize
}

/// A hash index split into disjoint **key-hash-range partitions**, each
/// an ordinary [`Index`] holding exactly the keys whose hash falls in
/// its range. Partitions are built independently (one worker per range,
/// no shared state), probed through [`get`](Self::get) — which routes a
/// key to its owning partition — and are read-only once published:
/// every partition sits behind its own `Arc`, so concurrent probes
/// share them freely.
///
/// Because each partition scans the batch in row order, a key's bucket
/// holds exactly the same row numbers in exactly the same order as the
/// flat index's bucket would — partitioned probes are therefore
/// **bit-identical** to serial probes, not just set-equal.
#[derive(Debug, Clone)]
pub struct PartitionedIndex {
    parts: Vec<Arc<Index>>,
}

impl PartitionedIndex {
    /// Assembles the partitions (in range order).
    pub fn new(parts: Vec<Arc<Index>>) -> Self {
        debug_assert!(!parts.is_empty());
        PartitionedIndex { parts }
    }

    pub fn part_count(&self) -> usize {
        self.parts.len()
    }

    /// The rows matching `key`, from the partition owning its hash.
    // `hash_partition` returns `< parts.len()` by construction.
    #[allow(clippy::indexing_slicing)]
    pub fn get(&self, key: &JoinKey) -> Option<&Vec<RowId>> {
        self.parts[hash_partition(key_hash(key), self.parts.len())].get(key)
    }

    pub fn contains_key(&self, key: &JoinKey) -> bool {
        self.get(key).is_some()
    }
}

/// The whole-row dedup table: full-row hash → candidate row numbers,
/// compared against the columnar storage by the total order on probe. A
/// deliberate *non*-`Index`: it stores no key clones at all, so the
/// accumulated IDB holds each tuple once, not once in storage plus once
/// in its dedup key.
type DedupTable = HashMap<u64, Vec<RowId>, FxBuild>;

/// The full-row hash of a tuple, consistent with `JoinKey` equality
/// (total-order-equal rows hash equally, because [`Value`]'s `Hash` is).
fn row_hash(t: &Tuple) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = FxHasher::default();
    for v in t.values() {
        v.hash(&mut h);
    }
    h.finish()
}

/// [`row_hash`] computed off a store row — byte-compatible, because
/// [`ValueRef::total_hash`] writes exactly what [`Value`]'s `Hash` does.
/// Shared with the executor's `Dedup`/`Diff` kernels, which bucket rows
/// by the same equality-consistent hash.
pub(crate) fn row_hash_at(store: &ColumnStore, row: usize) -> u64 {
    use std::hash::Hasher;
    let mut h = FxHasher::default();
    for c in 0..store.arity() {
        store.get(c, row).total_hash(&mut h);
    }
    h.finish()
}

/// Whether a store row equals a tuple under the total order.
fn row_eq_tuple(store: &ColumnStore, row: usize, t: &Tuple) -> bool {
    t.values()
        .iter()
        .enumerate()
        .all(|(c, v)| store.get(c, row).total_cmp(ValueRef::of(v)) == std::cmp::Ordering::Equal)
}

/// A schema-carrying row batch with on-demand hash indexes, on shared
/// column-major storage — see the module docs for the sharing model.
#[derive(Debug, Clone)]
pub struct IndexedRelation {
    schema: Schema,
    store: Arc<ColumnStore>,
    indexes: Arc<Mutex<IndexMap>>,
    /// Partitioned indexes (the parallel engine's build sides), cached
    /// by (key columns, partition count) and — like `indexes` —
    /// maintained across absorb appends.
    partitioned: Arc<Mutex<PartMap>>,
    /// Built lazily by the first absorb / [`insert_if_new`
    /// ](Self::insert_if_new); `None` until then.
    dedup: Arc<Mutex<Option<DedupTable>>>,
}

impl IndexedRelation {
    /// Columnarizes a batch of tuples (each must match `schema`'s arity).
    pub fn new(schema: Schema, tuples: Vec<Tuple>) -> Self {
        debug_assert!(tuples.iter().all(|t| t.arity() == schema.arity()));
        Self::from_store(schema.clone(), ColumnStore::from_tuples(schema.arity(), &tuples))
    }

    /// Wraps an already-columnar batch (operator outputs).
    pub fn from_store(schema: Schema, store: ColumnStore) -> Self {
        debug_assert_eq!(schema.arity(), store.arity());
        IndexedRelation {
            schema,
            store: Arc::new(store),
            indexes: Arc::new(Mutex::new(IndexMap::default())),
            partitioned: Arc::new(Mutex::new(PartMap::default())),
            dedup: Arc::new(Mutex::new(None)),
        }
    }

    /// Copies a set-semantics relation into an indexable batch: clones
    /// every tuple and columnarizes it. The executor calls this once per
    /// relation per database generation, through the relation's slot
    /// ([`crate::slots`]), and scans clone the resident batch after that.
    pub fn from_relation(rel: &Relation) -> Self {
        counters::count_materialization();
        let tuples: Vec<Tuple> = rel.iter().cloned().collect();
        IndexedRelation::new(rel.schema().clone(), tuples)
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Replaces the schema (a rename — arity must match). Pure metadata:
    /// the cell storage and positional indexes stay shared.
    pub fn with_schema(mut self, schema: Schema) -> Self {
        debug_assert_eq!(schema.arity(), self.schema.arity());
        self.schema = schema;
        self
    }

    pub fn len(&self) -> usize {
        self.store.len()
    }

    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The columnar cell storage (the vectorized kernels' operand).
    pub fn store(&self) -> &ColumnStore {
        &self.store
    }

    /// Materializes one row as a tuple.
    pub fn tuple_at(&self, row: usize) -> Tuple {
        self.store.tuple_at(row)
    }

    /// Materializes every row (test/debug convenience; operators stay
    /// columnar).
    pub fn to_tuples(&self) -> Vec<Tuple> {
        self.store.to_tuples()
    }

    /// The key of `tuple` under the given key columns.
    // Key columns are pre-checked against the batch arity by the executor.
    #[allow(clippy::indexing_slicing)]
    pub fn key_of(tuple: &Tuple, cols: &[usize]) -> JoinKey {
        JoinKey(cols.iter().map(|&i| tuple.values()[i].clone()).collect())
    }

    /// The key of a store row under the given key columns.
    fn key_at(store: &ColumnStore, row: usize, cols: &[usize]) -> JoinKey {
        JoinKey(cols.iter().map(|&i| store.get(i, row).to_value()).collect())
    }

    /// The hash index on `cols`, built on first request and cached for
    /// the life of the batch — including every view sharing its storage,
    /// and across appends ([`insert_if_new`](Self::insert_if_new)
    /// maintains all cached indexes). The returned `Arc` lets operators
    /// probe lock-free, row by row.
    pub fn index(&self, cols: &[usize]) -> Arc<Index> {
        let mut map = self.indexes.lock();
        if let Some(idx) = map.get(cols) {
            return Arc::clone(idx);
        }
        counters::count_index_build();
        let mut index = Index::default();
        for row in 0..self.store.len() {
            index
                .entry(Self::key_at(&self.store, row, cols))
                .or_default()
                .push(row_id(row));
        }
        let index = Arc::new(index);
        map.insert(cols.to_vec(), Arc::clone(&index));
        index
    }

    /// Builds **one hash-range partition** of the index on `cols`: the
    /// keys whose hash [`hash_partition`]s to `part` (of `parts`).
    /// Pure and lock-free over the shared storage, so the parallel
    /// engine runs one call per worker concurrently — through any view
    /// — and assembles the results into a [`PartitionedIndex`]. Row
    /// numbers keep storage order, exactly as [`index`](Self::index)
    /// would emit them.
    ///
    /// Every worker scans all rows, but ownership is decided by
    /// [`key_hash_at`] over the *borrowed* cells — a contiguous pass
    /// over the key columns' typed vectors; the expensive part of an
    /// index build (key clone + table insert) is only paid for this
    /// partition's ~1/`parts` share, so the builds split the work
    /// rather than multiply it.
    pub fn index_partition(&self, cols: &[usize], part: usize, parts: usize) -> Index {
        debug_assert!(part < parts);
        counters::count_partition_build();
        let mut index = Index::default();
        for row in 0..self.store.len() {
            if hash_partition(key_hash_at(&self.store, row, cols), parts) == part {
                index
                    .entry(Self::key_at(&self.store, row, cols))
                    .or_default()
                    .push(row_id(row));
            }
        }
        index
    }

    /// The cached partitioned index on (`cols`, `parts`), if one was
    /// published — shared by every view of this storage.
    pub fn cached_partitioned(&self, cols: &[usize], parts: usize) -> Option<Arc<PartitionedIndex>> {
        self.partitioned.lock().get(&(cols.to_vec(), parts)).cloned()
    }

    /// Publishes a partitioned index into the shared cache (maintained
    /// by later absorb appends, like every flat index). Returns the
    /// cached copy — the first publisher wins if two views race, so
    /// every holder probes identical partitions.
    pub fn cache_partitioned(
        &self,
        cols: &[usize],
        parts: usize,
        index: Arc<PartitionedIndex>,
    ) -> Arc<PartitionedIndex> {
        let mut map = self.partitioned.lock();
        Arc::clone(map.entry((cols.to_vec(), parts)).or_insert(index))
    }

    /// Inserts `t` unless an identical row (by the total order of
    /// [`Value`], the engine's notion of tuple equality) is already
    /// present, maintaining **every** cached index. Returns the row
    /// number of a genuinely new tuple, `None` for a duplicate —
    /// callers building a delta record the row instead of cloning the
    /// tuple back out.
    pub fn insert_if_new(&mut self, t: Tuple) -> Option<RowId> {
        let mut fresh = Vec::with_capacity(1);
        self.absorb_batch(vec![t], &mut fresh);
        fresh.pop()
    }

    /// Growing while a view shares the storage would leak rows into
    /// the view's snapshot (and its index probes): detach first.
    /// The engine never appends to a batch with live views, so this
    /// is a defensive copy, not a steady-state cost. (The store clone
    /// is an `Arc` spine; the first append to each column detaches its
    /// cells one layer down.)
    fn detach_if_shared(&mut self) {
        if Arc::strong_count(&self.store) > 1 {
            counters::count_deep_copy();
            self.store = Arc::new((*self.store).clone());
            let detached: IndexMap = self.indexes.lock().clone();
            self.indexes = Arc::new(Mutex::new(detached));
            let detached: PartMap = self.partitioned.lock().clone();
            self.partitioned = Arc::new(Mutex::new(detached));
            let detached = self.dedup.lock().clone();
            self.dedup = Arc::new(Mutex::new(detached));
        }
    }

    /// Moves every tuple of `batch` into this relation, skipping rows
    /// already present (by the total order of [`Value`]) and pushing
    /// each new row's number onto `fresh`. Membership probes the
    /// lazily-built whole-row hash table — O(1) amortized per tuple,
    /// not a set re-scan — while the lock and the copy-on-write check
    /// run once per batch, not once per tuple. Every cached index is
    /// maintained for the appended rows. (The row-major entry point;
    /// columnar operator outputs go through
    /// [`absorb_store`](Self::absorb_store).)
    pub fn absorb_batch(&mut self, batch: Vec<Tuple>, fresh: &mut Vec<RowId>) {
        if batch.is_empty() {
            return;
        }
        self.detach_if_shared();
        let mut dedup_slot = self.dedup.lock();
        let dedup = dedup_slot.get_or_insert_with(|| Self::build_dedup(&self.store));
        let mut map = self.indexes.lock();
        // Detach every index once for the whole batch (a no-op unless a
        // view still holds one).
        let mut indexes: Vec<(&[usize], &mut Index)> =
            map.iter_mut().map(|(cols, idx)| (cols.as_slice(), Arc::make_mut(idx))).collect();
        let mut part_map = self.partitioned.lock();
        let mut partitioned: Vec<(&[usize], usize, &mut PartitionedIndex)> = part_map
            .iter_mut()
            .map(|((cols, parts), idx)| (cols.as_slice(), *parts, Arc::make_mut(idx)))
            .collect();
        let store = Arc::make_mut(&mut self.store);
        for t in batch {
            let h = row_hash(&t);
            let bucket = dedup.entry(h).or_default();
            if bucket.iter().any(|&r| row_eq_tuple(store, r as usize, &t)) {
                continue;
            }
            let row = row_id(store.len());
            bucket.push(row);
            Self::maintain_indexes(
                &mut indexes,
                &mut partitioned,
                row,
                |cols| Self::key_of(&t, cols),
            );
            store.push_tuple(&t);
            fresh.push(row);
        }
    }

    /// [`absorb_batch`](Self::absorb_batch) off columnar storage — the
    /// fixpoint's per-rule dedup-and-delta step. Stays on the column
    /// fast paths end to end: whole-row hashes stream over the typed
    /// vectors, equality probes compare cells in place (same-generation
    /// string columns by id), and appends copy raw cells — no `Tuple`
    /// is ever materialized.
    pub fn absorb_store(&mut self, src: &ColumnStore, fresh: &mut Vec<RowId>) {
        debug_assert_eq!(self.schema.arity(), src.arity());
        if src.is_empty() {
            return;
        }
        self.detach_if_shared();
        let mut dedup_slot = self.dedup.lock();
        let dedup = dedup_slot.get_or_insert_with(|| Self::build_dedup(&self.store));
        let mut map = self.indexes.lock();
        let mut indexes: Vec<(&[usize], &mut Index)> =
            map.iter_mut().map(|(cols, idx)| (cols.as_slice(), Arc::make_mut(idx))).collect();
        let mut part_map = self.partitioned.lock();
        let mut partitioned: Vec<(&[usize], usize, &mut PartitionedIndex)> = part_map
            .iter_mut()
            .map(|((cols, parts), idx)| (cols.as_slice(), *parts, Arc::make_mut(idx)))
            .collect();
        let store = Arc::make_mut(&mut self.store);
        for r in 0..src.len() {
            let h = row_hash_at(src, r);
            let bucket = dedup.entry(h).or_default();
            if bucket.iter().any(|&q| store.rows_equal(q as usize, src, r)) {
                continue;
            }
            let row = row_id(store.len());
            bucket.push(row);
            Self::maintain_indexes(
                &mut indexes,
                &mut partitioned,
                row,
                |cols| Self::key_at(src, r, cols),
            );
            store.append_row_from(src, r);
            fresh.push(row);
        }
    }

    /// Registers an appended row in every cached flat and partitioned
    /// index (`make_key` builds the row's key for a given column set).
    // `hash_partition` returns `< parts.len()` by construction.
    #[allow(clippy::indexing_slicing)]
    fn maintain_indexes(
        indexes: &mut [(&[usize], &mut Index)],
        partitioned: &mut [(&[usize], usize, &mut PartitionedIndex)],
        row: RowId,
        make_key: impl Fn(&[usize]) -> JoinKey,
    ) {
        for (cols, index) in indexes.iter_mut() {
            index.entry(make_key(cols)).or_default().push(row);
        }
        for (cols, parts, pindex) in partitioned.iter_mut() {
            let key = make_key(cols);
            let owner = hash_partition(key_hash(&key), *parts);
            Arc::make_mut(&mut pindex.parts[owner]).entry(key).or_default().push(row);
        }
    }

    fn build_dedup(store: &ColumnStore) -> DedupTable {
        let mut table = DedupTable::default();
        for row in 0..store.len() {
            table.entry(row_hash_at(store, row)).or_default().push(row_id(row));
        }
        table
    }

    /// Consumes the batch, materializing its rows as tuples — the
    /// row-major boundary crossing at the final `Relation` conversion.
    pub fn into_tuples(self) -> Vec<Tuple> {
        self.store.to_tuples()
    }

    /// Converts back to a set-semantics [`Relation`] (deduplicating, in
    /// one bulk set construction). The sort runs over row ids against
    /// the columnar storage ([`ColumnStore::sorted_order`]), and tuples
    /// materialize already ascending — which is the bulk `BTreeSet`
    /// construction's presorted fast path.
    pub fn into_relation(self) -> Relation {
        let order = self.store.sorted_order();
        let rows = self.store.to_tuples_in(&order);
        Relation::from_tuples_unchecked(self.schema, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relviz_model::DataType;

    fn batch() -> IndexedRelation {
        let schema = Schema::of(&[("a", DataType::Int), ("b", DataType::Str)]);
        IndexedRelation::new(
            schema,
            vec![
                Tuple::of((1, "x")),
                Tuple::of((2, "y")),
                Tuple::of((1, "z")),
                Tuple::of((1, "x")),
            ],
        )
    }

    fn probe_len(b: &IndexedRelation, cols: &[usize], key: JoinKey) -> usize {
        b.index(cols).get(&key).map_or(0, Vec::len)
    }

    #[test]
    fn index_groups_rows_by_key() {
        let b = batch();
        assert_eq!(probe_len(&b, &[0], JoinKey::new(vec![Value::Int(1)])), 3);
        assert_eq!(probe_len(&b, &[0], JoinKey::new(vec![Value::Int(2)])), 1);
        assert_eq!(probe_len(&b, &[0], JoinKey::new(vec![Value::Int(9)])), 0);
    }

    #[test]
    fn index_is_built_once_and_cached() {
        counters::reset();
        let b = batch();
        b.index(&[0, 1]);
        b.index(&[0, 1]);
        assert_eq!(counters::index_builds(), 1);
        let k = JoinKey::new(vec![Value::Int(1), Value::str("x")]);
        assert_eq!(probe_len(&b, &[0, 1], k), 2);
    }

    /// Join keys match by the total order of Value, not derived
    /// equality: `Int 1` probes rows holding `Float 1.0`, and `NaN`
    /// probes rows holding an identical `NaN` — exactly as the
    /// reference evaluators' `CmpOp`-based comparisons behave.
    #[test]
    fn keys_compare_by_total_order() {
        let schema = Schema::of(&[("a", DataType::Float)]);
        let b = IndexedRelation::new(
            schema,
            vec![Tuple::of((1.0,)), Tuple::of((f64::NAN,))],
        );
        assert_eq!(probe_len(&b, &[0], JoinKey::new(vec![Value::Int(1)])), 1);
        assert_eq!(probe_len(&b, &[0], JoinKey::new(vec![Value::Float(f64::NAN)])), 1);
        // -0.0 and 0.0 are *distinct* under the total order.
        assert_eq!(probe_len(&b, &[0], JoinKey::new(vec![Value::Float(-0.0)])), 0);
    }

    /// `insert_if_new` dedupes by the total order (Int 1 == Float 1.0)
    /// and keeps previously-built indexes consistent with the appended
    /// rows.
    #[test]
    fn insert_if_new_dedupes_and_maintains_indexes() {
        let mut b = batch();
        b.index(&[0]);
        assert!(b.insert_if_new(Tuple::of((1, "x"))).is_none()); // duplicate
        assert!(b.insert_if_new(Tuple::of((1.0, "x"))).is_none()); // total-order duplicate
        assert_eq!(b.insert_if_new(Tuple::of((2, "z"))), Some(4));
        assert_eq!(b.len(), 5);
        // The pre-existing [0] index sees the appended row...
        assert_eq!(probe_len(&b, &[0], JoinKey::new(vec![Value::Int(2)])), 2);
        // ...and the all-columns dedup index keeps working afterwards.
        assert!(b.insert_if_new(Tuple::of((2, "z"))).is_none());
    }

    /// The columnar twin: absorbing another batch's storage dedupes by
    /// content even when the two batches' interning tables assigned the
    /// same strings different ids (overlapping string domains — the
    /// id-vs-content confusion the interner contract forbids).
    #[test]
    fn absorb_store_dedupes_across_interner_generations() {
        let schema = Schema::of(&[("s", DataType::Str)]);
        // Generation A interns x=0, y=1; generation B interns y=0, x=1.
        let mut a = IndexedRelation::new(
            schema.clone(),
            vec![Tuple::of(("x",)), Tuple::of(("y",))],
        );
        let b = IndexedRelation::new(
            schema,
            vec![Tuple::of(("y",)), Tuple::of(("x",)), Tuple::of(("z",))],
        );
        let mut fresh = Vec::new();
        a.absorb_store(b.store(), &mut fresh);
        assert_eq!(fresh, vec![2], "only z is new — x and y dedup by content");
        assert_eq!(a.len(), 3);
        assert_eq!(a.tuple_at(2), Tuple::of(("z",)));
    }

    /// Clones share storage: no cell copies, and an index built through
    /// the clone is visible to (and cached by) the original.
    #[test]
    fn clones_share_tuples_and_indexes() {
        counters::reset();
        let b = batch();
        let renamed = b
            .clone()
            .with_schema(Schema::of(&[("x", DataType::Int), ("y", DataType::Str)]));
        assert_eq!(counters::deep_copies(), 0);
        renamed.index(&[0]);
        b.index(&[0]); // cache hit through the shared map
        assert_eq!(counters::index_builds(), 1);
        assert_eq!(renamed.schema().names(), vec!["x", "y"]);
        assert_eq!(b.schema().names(), vec!["a", "b"]);
    }

    /// Growing a batch while a view shares its storage detaches (COW)
    /// instead of corrupting the view's snapshot: the view keeps its
    /// length and its index contents.
    #[test]
    fn append_under_sharing_detaches_view_safely() {
        counters::reset();
        let mut b = batch();
        let view = b.clone();
        let view_idx = view.index(&[0]);
        assert!(b.insert_if_new(Tuple::of((7, "q"))).is_some());
        assert!(counters::deep_copies() > 0, "shared append must COW");
        assert_eq!(view.len(), 4);
        assert_eq!(b.len(), 5);
        // The view's index never saw the appended row.
        assert!(view_idx.get(&JoinKey::new(vec![Value::Int(7)])).is_none());
        assert!(view.index(&[0]).get(&JoinKey::new(vec![Value::Int(7)])).is_none());
        // The grown batch's did.
        assert_eq!(probe_len(&b, &[0], JoinKey::new(vec![Value::Int(7)])), 1);
    }

    /// Sole-owner appends stay in place: no storage copies.
    #[test]
    fn unshared_append_is_in_place() {
        counters::reset();
        let mut b = batch();
        b.index(&[0]);
        for i in 10..60 {
            assert!(b.insert_if_new(Tuple::of((i, "n"))).is_some());
        }
        assert_eq!(counters::deep_copies(), 0);
        assert_eq!(b.len(), 54);
    }

    /// The final row-major crossing materializes tuples from the
    /// columns; it is a conversion, not a (counted) storage deep copy.
    #[test]
    fn into_tuples_materializes_without_deep_copy() {
        counters::reset();
        let b = batch();
        assert_eq!(b.into_tuples().len(), 4);
        assert_eq!(counters::deep_copies(), 0);
    }

    #[test]
    fn into_relation_restores_set_semantics() {
        let rel = batch().into_relation();
        assert_eq!(rel.len(), 3); // the duplicate (1, x) collapses
    }

    #[test]
    fn roundtrip_from_relation() {
        let rel = batch().into_relation();
        let b = IndexedRelation::from_relation(&rel);
        assert_eq!(b.len(), 3);
        assert_eq!(b.schema().names(), vec!["a", "b"]);
    }

    fn assemble(b: &IndexedRelation, cols: &[usize], parts: usize) -> PartitionedIndex {
        PartitionedIndex::new(
            (0..parts).map(|p| Arc::new(b.index_partition(cols, p, parts))).collect(),
        )
    }

    /// Hash-range partitions are disjoint, cover every key, and a
    /// key's bucket is bit-identical to the flat index's bucket.
    #[test]
    fn partitioned_index_agrees_with_flat_index() {
        let schema = Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]);
        let rows: Vec<Tuple> = (0..200).map(|i| Tuple::of((i % 37, i))).collect();
        let b = IndexedRelation::new(schema, rows);
        let flat = b.index(&[0]);
        for parts in [1, 2, 3, 8] {
            let pidx = assemble(&b, &[0], parts);
            let mut covered = 0;
            for (key, rows) in flat.iter() {
                assert_eq!(pidx.get(key), Some(rows), "parts={parts}");
                covered += 1;
            }
            let total: usize = (0..parts)
                .map(|p| b.index_partition(&[0], p, parts).len())
                .sum();
            assert_eq!(total, covered, "partitions must tile the key space");
        }
    }

    /// Total-order key equality holds across partitions too: Int 1
    /// and Float 1.0 hash to the same partition and the same bucket.
    #[test]
    fn partitioned_probe_respects_total_order() {
        let schema = Schema::of(&[("a", DataType::Float)]);
        let b = IndexedRelation::new(schema, vec![Tuple::of((1.0,)), Tuple::of((2.5,))]);
        let pidx = assemble(&b, &[0], 4);
        assert_eq!(pidx.get(&JoinKey::new(vec![Value::Int(1)])), Some(&vec![0u32]));
        assert!(!pidx.contains_key(&JoinKey::new(vec![Value::Int(2)])));
    }

    /// A published partitioned index is maintained across appends,
    /// like every flat index.
    #[test]
    fn absorb_maintains_partitioned_indexes() {
        let mut b = batch();
        let pidx = Arc::new(assemble(&b, &[0], 3));
        b.cache_partitioned(&[0], 3, pidx);
        assert!(b.insert_if_new(Tuple::of((7, "q"))).is_some());
        let maintained = b.cached_partitioned(&[0], 3).expect("still cached");
        assert_eq!(
            maintained.get(&JoinKey::new(vec![Value::Int(7)])),
            Some(&vec![4u32])
        );
        // Pre-existing keys are untouched.
        assert_eq!(
            maintained
                .get(&JoinKey::new(vec![Value::Int(1)]))
                .map(Vec::len),
            Some(3)
        );
        assert_eq!(maintained.part_count(), 3);
    }
}
