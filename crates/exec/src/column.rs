//! **Column-major batch storage**: one typed vector per column, a
//! validity bitmap for NULLs, and a per-column string interning table —
//! the cells behind [`crate::indexed::IndexedRelation`].
//!
//! A [`ColumnStore`] is a fixed-arity batch of rows stored column-wise:
//! each column is an `Arc`'d [`Column`] holding a dense `Vec<i64>` /
//! `Vec<f64>` / `Vec<bool>`, interned string ids, or (for columns whose
//! rows genuinely mix types) plain [`Value`]s. Operators that re-order
//! whole columns — projections, the column halves of a join output —
//! clone `Arc`s, not data; operators that select rows gather them
//! through typed loops instead of cloning heap-scattered tuples.
//!
//! ## Semantics contract
//!
//! Cells are read as [`ValueRef`]s, whose `total_cmp`/`total_hash`
//! delegate to the model's `Value` order — so the columnar kernels
//! agree with the row-major reference evaluators on every edge case
//! (`NaN = NaN`, `-0.0 < 0.0`, `Int 1 = Float 1.0`) by construction.
//! Two rules keep that true under the columnar representation:
//!
//! * **No numeric widening.** A column holding `Int 1` and `Float 2.5`
//!   stays [`ColumnData::Mixed`] — promoting ints to floats would be
//!   order-equal but *render*-distinct (`1` vs `1.0`), and renderings
//!   are the determinism suite's byte-identity anchor.
//! * **Interned ids never leak into semantics.** An id is a private
//!   index into one [`StrInterner`] generation; equality of ids implies
//!   equality of strings *only* within one interner (interning dedups),
//!   and no ordering is ever derived from ids. Cross-batch comparisons
//!   ([`Column::cell_eq`], join keys, dedup) compare ids only behind an
//!   `Arc::ptr_eq` same-generation guard and fall back to string
//!   content otherwise.
//!
//! ## Row-id width
//!
//! Row numbers are [`RowId`] = `u32` throughout the engine (indexes,
//! deltas, gather lists): half the footprint of `usize` buckets, and
//! 2³²−1 rows per batch is far beyond the in-process workloads this
//! engine targets. The widening `RowId → usize` direction is lossless
//! on every supported target (≥ 32-bit); the narrowing direction goes
//! through [`row_id`], which panics with a diagnostic instead of
//! truncating if a batch ever outgrows the width.

use std::collections::HashMap;
use std::sync::Arc;

use relviz_model::{Tuple, Value, ValueRef};

use crate::stats::counters;

/// The engine's row-number type. See the module docs for the width
/// decision; use [`row_id`] for the checked narrowing conversion.
pub type RowId = u32;

/// The checked `usize → RowId` conversion used on every append path.
/// Panics (never truncates) on overflow — reachable only past 2³²−1
/// rows in one batch, at which point silently wrapped row ids would
/// corrupt indexes and deltas.
#[inline]
pub(crate) fn row_id(row: usize) -> RowId {
    RowId::try_from(row).expect("batch exceeds the 32-bit row-id width (2^32-1 rows)")
}

// ---------------------------------------------------------------------------
// Bitmap
// ---------------------------------------------------------------------------

/// A fixed-length bitset over row positions, packed 64 per word. Used
/// as the **validity bitmap** of a column (set = the row holds a value,
/// unset = NULL) and as the **selection bitmap** a vectorized filter
/// evaluates predicates into.
#[derive(Debug, Clone, Default)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

// Word indexes derive from bit indexes `< len`, which sizing guarantees.
#[allow(clippy::indexing_slicing)]
impl Bitmap {
    /// An all-unset bitmap of `len` bits (counted as a bitmap alloc).
    pub fn zeros(len: usize) -> Bitmap {
        counters::count_bitmap_alloc();
        Bitmap { words: vec![0; len.div_ceil(64)], len }
    }

    /// An all-set bitmap of `len` bits (counted as a bitmap alloc).
    pub fn ones(len: usize) -> Bitmap {
        let mut bm = Bitmap::zeros(len);
        for w in &mut bm.words {
            *w = u64::MAX;
        }
        bm.mask_tail();
        bm
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Appends one bit (grows the bitmap by one position).
    pub fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if bit {
            let i = self.len;
            self.words[i / 64] |= 1u64 << (i % 64);
        }
        self.len += 1;
    }

    /// In-place intersection with an equal-length bitmap.
    pub fn and_with(&mut self, other: &Bitmap) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place union with an equal-length bitmap.
    pub fn or_with(&mut self, other: &Bitmap) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place complement (tail bits past `len` stay clear).
    pub fn negate(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// Clears the unused bits of the last word so word-wise ops and
    /// [`count_ones`](Self::count_ones) never see ghost positions.
    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Appends the position of every set bit, offset by `base`, onto
    /// `out` in ascending order — how a selection bitmap becomes the
    /// row-id list a gather consumes (word-wise, via trailing-zeros).
    pub fn collect_ones(&self, base: usize, out: &mut Vec<RowId>) {
        for (wi, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                out.push(row_id(base + wi * 64 + bit));
                w &= w - 1;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// String interning
// ---------------------------------------------------------------------------

/// A string interning table: distinct strings stored once, cells hold
/// `u32` ids. One **generation** of ids is private to one interner:
/// within it, id equality ⇔ string equality (interning dedups), so
/// same-generation columns compare cells by id; across generations ids
/// are meaningless and every comparison goes through string content.
/// Ids carry no order in any case — ordering always resolves strings.
#[derive(Debug, Clone, Default)]
pub struct StrInterner {
    strings: Vec<Arc<str>>,
    ids: HashMap<Arc<str>, u32, crate::indexed::FxBuild>,
}

impl StrInterner {
    /// The id of `s`, interning it if new.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let arc: Arc<str> = Arc::from(s);
        self.intern_new(arc)
    }

    /// [`intern`](Self::intern) from another generation's storage —
    /// shares the `Arc<str>` instead of copying the bytes.
    pub fn intern_arc(&mut self, s: &Arc<str>) -> u32 {
        if let Some(&id) = self.ids.get(s.as_ref()) {
            return id;
        }
        self.intern_new(Arc::clone(s))
    }

    fn intern_new(&mut self, arc: Arc<str>) -> u32 {
        let id = u32::try_from(self.strings.len()).expect("interner exceeds u32 ids");
        self.strings.push(Arc::clone(&arc));
        self.ids.insert(arc, id);
        id
    }

    /// The string behind `id` (ids come from this interner's own cells).
    // Ids are produced by `intern` and are `< strings.len()` by construction.
    #[allow(clippy::indexing_slicing)]
    #[inline]
    pub fn get(&self, id: u32) -> &str {
        &self.strings[id as usize]
    }

    /// The `Arc` behind `id`, for cross-generation re-interning.
    // Same bound as `get`.
    #[allow(clippy::indexing_slicing)]
    pub(crate) fn arc(&self, id: u32) -> &Arc<str> {
        &self.strings[id as usize]
    }

    /// The id of `s` if already interned (the filter kernels' fast
    /// path: a constant absent from the table matches no row).
    pub fn lookup(&self, s: &str) -> Option<u32> {
        self.ids.get(s).copied()
    }

    /// Number of distinct strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Distinct strings in id order — the filter kernels evaluate a
    /// predicate once per distinct string, then map verdicts over ids.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.strings.iter().map(AsRef::as_ref)
    }
}

/// Interns `s` into a possibly-shared interner: a lookup hit never
/// touches the `Arc` (the steady-state path — fixpoint rounds re-derive
/// known strings), a miss clones a shared table once (counted as
/// interner growth) before extending it.
fn intern_in(interner: &mut Arc<StrInterner>, s: &str) -> u32 {
    if let Some(id) = interner.lookup(s) {
        return id;
    }
    if Arc::strong_count(interner) > 1 {
        counters::count_interner_growth();
    }
    Arc::make_mut(interner).intern(s)
}

// ---------------------------------------------------------------------------
// Column
// ---------------------------------------------------------------------------

/// The typed cell storage of one column. `Mixed` is the escape hatch
/// for columns whose rows genuinely mix types (`DataType::Any` data) —
/// it stores plain `Value`s, NULLs inline, and every kernel falls back
/// to per-row [`ValueRef`] comparisons over it.
#[derive(Debug, Clone)]
pub enum ColumnData {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Bool(Vec<bool>),
    /// Interned strings: `ids[row]` indexes `interner`. The interner is
    /// `Arc`-shared by every column gathered/projected from this one,
    /// which is exactly the same-generation condition for id equality.
    Str { ids: Vec<u32>, interner: Arc<StrInterner> },
    Mixed(Vec<Value>),
}

impl ColumnData {
    fn len(&self) -> usize {
        match self {
            ColumnData::Int(xs) => xs.len(),
            ColumnData::Float(xs) => xs.len(),
            ColumnData::Bool(xs) => xs.len(),
            ColumnData::Str { ids, .. } => ids.len(),
            ColumnData::Mixed(xs) => xs.len(),
        }
    }
}

/// One column: typed cells plus an optional validity bitmap (set =
/// value present, unset = NULL; `None` = all rows valid — typed columns
/// only materialize a bitmap when the first NULL arrives, and `Mixed`
/// stores NULLs inline instead).
#[derive(Debug, Clone)]
pub struct Column {
    data: ColumnData,
    validity: Option<Bitmap>,
}

impl Default for Column {
    fn default() -> Self {
        Column::new()
    }
}

impl Column {
    /// An empty column. The representation is adopted from the first
    /// value pushed (an empty `Mixed` until then), so an empty-schema'd
    /// IDB relation (`DataType::Any` columns) still ends up on typed
    /// storage once real rows arrive.
    pub fn new() -> Column {
        Column { data: ColumnData::Mixed(Vec::new()), validity: None }
    }

    /// A column of `len` copies of one constant (a `Project` const
    /// output column). Strings intern once; ids repeat.
    pub fn of_const(v: &Value, len: usize) -> Column {
        let data = match v {
            Value::Int(i) => ColumnData::Int(vec![*i; len]),
            Value::Float(f) => ColumnData::Float(vec![*f; len]),
            Value::Bool(b) => ColumnData::Bool(vec![*b; len]),
            Value::Str(s) => {
                let mut interner = StrInterner::default();
                let id = interner.intern(s);
                ColumnData::Str { ids: vec![id; len], interner: Arc::new(interner) }
            }
            Value::Null => ColumnData::Mixed(vec![Value::Null; len]),
        };
        Column { data, validity: None }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The typed cell storage (the vectorized kernels' window).
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The validity bitmap, if any row is NULL.
    pub fn validity(&self) -> Option<&Bitmap> {
        self.validity.as_ref()
    }

    #[inline]
    fn is_valid(&self, row: usize) -> bool {
        self.validity.as_ref().is_none_or(|v| v.get(row))
    }

    /// The cell at `row` as a borrowed scalar.
    // Rows are `< len()` at every call site (probe loops, gathers).
    #[allow(clippy::indexing_slicing)]
    #[inline]
    pub fn get(&self, row: usize) -> ValueRef<'_> {
        if !self.is_valid(row) {
            return ValueRef::Null;
        }
        match &self.data {
            ColumnData::Int(xs) => ValueRef::Int(xs[row]),
            ColumnData::Float(xs) => ValueRef::Float(xs[row]),
            ColumnData::Bool(xs) => ValueRef::Bool(xs[row]),
            ColumnData::Str { ids, interner } => ValueRef::Str(interner.get(ids[row])),
            ColumnData::Mixed(xs) => ValueRef::of(&xs[row]),
        }
    }

    /// Appends one cell. An empty column adopts the value's type; a
    /// typed column receiving a non-conforming value (including an
    /// `Int`/`Float` mix — never silently widened, see module docs)
    /// demotes itself to `Mixed` first; NULL on a typed column
    /// materializes the validity bitmap.
    pub fn push(&mut self, v: ValueRef<'_>) {
        if self.is_empty() && self.validity.is_none() && !v.is_null() {
            self.data = match v {
                ValueRef::Int(_) => ColumnData::Int(Vec::new()),
                ValueRef::Float(_) => ColumnData::Float(Vec::new()),
                ValueRef::Bool(_) => ColumnData::Bool(Vec::new()),
                ValueRef::Str(_) => {
                    ColumnData::Str { ids: Vec::new(), interner: Arc::new(StrInterner::default()) }
                }
                ValueRef::Null => unreachable!("guarded by !v.is_null()"),
            };
        }
        match (&mut self.data, v) {
            (ColumnData::Int(xs), ValueRef::Int(i)) => {
                xs.push(i);
                self.push_valid();
            }
            (ColumnData::Float(xs), ValueRef::Float(f)) => {
                xs.push(f);
                self.push_valid();
            }
            (ColumnData::Bool(xs), ValueRef::Bool(b)) => {
                xs.push(b);
                self.push_valid();
            }
            (ColumnData::Str { ids, interner }, ValueRef::Str(s)) => {
                let id = intern_in(interner, s);
                ids.push(id);
                self.push_valid();
            }
            (ColumnData::Mixed(xs), v) => xs.push(v.to_value()),
            (_, ValueRef::Null) => {
                // NULL on a typed column: placeholder cell, invalid bit.
                let len = self.len();
                let validity = self.validity.get_or_insert_with(|| Bitmap::ones(len));
                match &mut self.data {
                    ColumnData::Int(xs) => xs.push(0),
                    ColumnData::Float(xs) => xs.push(0.0),
                    ColumnData::Bool(xs) => xs.push(false),
                    ColumnData::Str { ids, .. } => ids.push(0),
                    ColumnData::Mixed(_) => unreachable!("Mixed handled above"),
                }
                validity.push(false);
            }
            (_, v) => {
                // Type conflict: demote to Mixed, then append plainly.
                self.demote_to_mixed();
                if let ColumnData::Mixed(xs) = &mut self.data {
                    xs.push(v.to_value());
                }
            }
        }
    }

    /// Re-materializes the column as `Mixed` (NULLs inline, validity
    /// dissolved) — the one-time cost of discovering a column's rows
    /// mix types. Counted as a column materialization.
    fn demote_to_mixed(&mut self) {
        counters::count_column_build();
        let vals: Vec<Value> = (0..self.len()).map(|r| self.get(r).to_value()).collect();
        self.data = ColumnData::Mixed(vals);
        self.validity = None;
    }

    #[inline]
    fn push_valid(&mut self) {
        if let Some(v) = &mut self.validity {
            v.push(true);
        }
    }

    /// Appends `src`'s cell at `row` — the absorb hot path. Matching
    /// typed representations copy the raw cell; same-generation string
    /// columns copy the id; everything else goes through [`push`]. An
    /// empty column adopts `src`'s representation first (sharing its
    /// interner generation, so steady-state fixpoint appends stay on
    /// the id fast path).
    // `row < src.len()` at every call site (dedup'd appends, gathers).
    #[allow(clippy::indexing_slicing)]
    pub fn push_from(&mut self, src: &Column, row: usize) {
        if self.is_empty() && self.validity.is_none() {
            match &src.data {
                ColumnData::Str { interner, .. } => {
                    self.data = ColumnData::Str {
                        ids: Vec::new(),
                        interner: Arc::clone(interner),
                    };
                }
                ColumnData::Int(_) => self.data = ColumnData::Int(Vec::new()),
                ColumnData::Float(_) => self.data = ColumnData::Float(Vec::new()),
                ColumnData::Bool(_) => self.data = ColumnData::Bool(Vec::new()),
                ColumnData::Mixed(_) => self.data = ColumnData::Mixed(Vec::new()),
            }
        }
        if !src.is_valid(row) {
            self.push(ValueRef::Null);
            return;
        }
        match (&mut self.data, &src.data) {
            (ColumnData::Int(a), ColumnData::Int(b)) => {
                a.push(b[row]);
                self.push_valid();
            }
            (ColumnData::Float(a), ColumnData::Float(b)) => {
                a.push(b[row]);
                self.push_valid();
            }
            (ColumnData::Bool(a), ColumnData::Bool(b)) => {
                a.push(b[row]);
                self.push_valid();
            }
            (ColumnData::Str { ids: a, interner: ia }, ColumnData::Str { ids: b, interner: ib }) => {
                let id = if Arc::ptr_eq(ia, ib) {
                    b[row] // same generation: the id is already ours
                } else if let Some(id) = ia.lookup(ib.get(b[row])) {
                    id
                } else {
                    if Arc::strong_count(ia) > 1 {
                        counters::count_interner_growth();
                    }
                    Arc::make_mut(ia).intern_arc(ib.arc(b[row]))
                };
                a.push(id);
                self.push_valid();
            }
            _ => self.push(src.get(row)),
        }
    }

    /// A new column holding `rows`'s cells in order (typed loops; the
    /// interner `Arc` is shared, never copied).
    // Gather lists are row ids recorded against this column's length.
    #[allow(clippy::indexing_slicing)]
    pub fn gather(&self, rows: &[RowId]) -> Column {
        let data = match &self.data {
            ColumnData::Int(xs) => {
                ColumnData::Int(rows.iter().map(|&r| xs[r as usize]).collect())
            }
            ColumnData::Float(xs) => {
                ColumnData::Float(rows.iter().map(|&r| xs[r as usize]).collect())
            }
            ColumnData::Bool(xs) => {
                ColumnData::Bool(rows.iter().map(|&r| xs[r as usize]).collect())
            }
            ColumnData::Str { ids, interner } => ColumnData::Str {
                ids: rows.iter().map(|&r| ids[r as usize]).collect(),
                interner: Arc::clone(interner),
            },
            ColumnData::Mixed(xs) => {
                ColumnData::Mixed(rows.iter().map(|&r| xs[r as usize].clone()).collect())
            }
        };
        let validity = self.validity.as_ref().map(|v| {
            let mut bm = Bitmap::zeros(rows.len());
            for (i, &r) in rows.iter().enumerate() {
                if v.get(r as usize) {
                    bm.set(i);
                }
            }
            bm
        });
        Column { data, validity }
    }

    /// Appends every cell of `other` (the `Union` kernel). Matching
    /// representations extend cell-wise via [`push_from`]'s fast paths.
    pub fn extend_from(&mut self, other: &Column) {
        for r in 0..other.len() {
            self.push_from(other, r);
        }
    }

    /// Whether two cells (possibly of different stores/generations) are
    /// equal **under the total order** — the engine's tuple equality.
    /// Same-generation string cells compare by id; everything else
    /// through [`ValueRef::total_cmp`].
    // Both rows are `< len()` of their columns at every call site.
    #[allow(clippy::indexing_slicing)]
    #[inline]
    pub fn cell_eq(&self, row: usize, other: &Column, orow: usize) -> bool {
        if let (
            ColumnData::Str { ids: a, interner: ia },
            ColumnData::Str { ids: b, interner: ib },
        ) = (&self.data, &other.data)
        {
            if Arc::ptr_eq(ia, ib) && self.is_valid(row) && other.is_valid(orow) {
                return a[row] == b[orow];
            }
        }
        self.get(row).total_cmp(other.get(orow)) == std::cmp::Ordering::Equal
    }
}

// ---------------------------------------------------------------------------
// ColumnStore
// ---------------------------------------------------------------------------

/// A fixed-arity batch of rows on column-major storage. Columns sit
/// behind `Arc`s so projections and column-level sharing are pointer
/// bumps; the row count is tracked independently so zero-arity batches
/// (boolean query results) still count their rows.
#[derive(Debug, Clone, Default)]
pub struct ColumnStore {
    columns: Vec<Arc<Column>>,
    rows: usize,
}

impl ColumnStore {
    /// An empty store of the given arity.
    pub fn empty(arity: usize) -> ColumnStore {
        ColumnStore { columns: (0..arity).map(|_| Arc::new(Column::new())).collect(), rows: 0 }
    }

    /// Builds columns from row-major tuples (each must have the given
    /// arity). Counted as one column materialization per column (an
    /// empty batch materializes nothing and counts nothing).
    pub fn from_tuples(arity: usize, tuples: &[Tuple]) -> ColumnStore {
        let mut cols: Vec<Column> = (0..arity).map(|_| Column::new()).collect();
        for t in tuples {
            debug_assert_eq!(t.arity(), arity);
            for (c, v) in cols.iter_mut().zip(t.values()) {
                c.push(ValueRef::of(v));
            }
        }
        if !tuples.is_empty() {
            for _ in 0..arity {
                counters::count_column_build();
            }
        }
        ColumnStore { columns: cols.into_iter().map(Arc::new).collect(), rows: tuples.len() }
    }

    /// Assembles a store from pre-built columns (operator outputs: the
    /// gathered halves of a join, a projection's `Arc`-cloned columns).
    /// Every column must have `rows` cells.
    pub fn from_columns(columns: Vec<Arc<Column>>, rows: usize) -> ColumnStore {
        debug_assert!(columns.iter().all(|c| c.len() == rows));
        ColumnStore { columns, rows }
    }

    pub fn len(&self) -> usize {
        self.rows
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The column at `col` (pre-checked by the executor's `check_cols`).
    // See above: operator column indexes are validated once per node.
    #[allow(clippy::indexing_slicing)]
    #[inline]
    pub fn col(&self, col: usize) -> &Column {
        &self.columns[col]
    }

    /// The shared column handles, for zero-copy re-assembly.
    pub fn columns(&self) -> &[Arc<Column>] {
        &self.columns
    }

    /// The shared handle of the column at `col` — what a zero-copy
    /// projection clones instead of cells.
    // Same pre-checked bound as `col`.
    #[allow(clippy::indexing_slicing)]
    pub fn col_arc(&self, col: usize) -> Arc<Column> {
        Arc::clone(&self.columns[col])
    }

    /// The cell at (`col`, `row`) as a borrowed scalar.
    #[inline]
    pub fn get(&self, col: usize, row: usize) -> ValueRef<'_> {
        self.col(col).get(row)
    }

    /// Materializes one row as a tuple.
    pub fn tuple_at(&self, row: usize) -> Tuple {
        debug_assert!(row < self.rows);
        Tuple::new(self.columns.iter().map(|c| c.get(row).to_value()).collect())
    }

    /// Materializes every row — the row-major boundary crossing at the
    /// final `Relation` conversion (and nowhere else on the hot paths).
    pub fn to_tuples(&self) -> Vec<Tuple> {
        (0..self.rows).map(|r| self.tuple_at(r)).collect()
    }

    /// Materializes the rows named by `order`, in that order.
    pub fn to_tuples_in(&self, order: &[RowId]) -> Vec<Tuple> {
        order.iter().map(|&r| self.tuple_at(r as usize)).collect()
    }

    /// Compares two rows cell by cell under the total order — exactly
    /// the lexicographic order materialized [`Tuple`]s would sort in,
    /// computed against the columns in place.
    pub fn cmp_rows(&self, a: usize, b: usize) -> std::cmp::Ordering {
        for c in &self.columns {
            let ord = c.get(a).total_cmp(c.get(b));
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    }

    /// Row numbers sorted ascending under [`cmp_rows`](Self::cmp_rows).
    /// Sorting ids against the columns beats sorting materialized
    /// tuples: comparisons read cells in place instead of chasing each
    /// tuple's heap allocation, and rows are only materialized once the
    /// order is known. (Unstable is safe: equal rows are identical, so
    /// any relative order of theirs is the same sequence of tuples.)
    pub fn sorted_order(&self) -> Vec<RowId> {
        let mut order: Vec<RowId> = (0..self.rows).map(row_id).collect();
        self.sort_ids(&mut order);
        order
    }

    /// Sorts `ids` ascending under the row total order, picking the
    /// fastest comparator the storage allows: NULL-free all-`Int`
    /// stores (every Datalog workload) sort packed key rows with plain
    /// integer compares — on `Int` cells the total order *is* `i64`
    /// order — and everything else compares cells through
    /// [`cmp_rows`](Self::cmp_rows).
    // ids are valid row numbers of this store (caller contract, debug-checked).
    #[allow(clippy::indexing_slicing)]
    pub fn sort_ids(&self, ids: &mut [RowId]) {
        debug_assert!(ids.iter().all(|&r| (r as usize) < self.rows));
        let ints: Option<Vec<&[i64]>> = self
            .columns
            .iter()
            .map(|c| match (&c.data, &c.validity) {
                (ColumnData::Int(xs), None) => Some(xs.as_slice()),
                _ => None,
            })
            .collect();
        match ints.as_deref() {
            Some([xs]) => ids.sort_unstable_by_key(|&r| xs[r as usize]),
            Some([xs, ys]) => {
                ids.sort_unstable_by_key(|&r| (xs[r as usize], ys[r as usize]));
            }
            Some(cols) => ids.sort_unstable_by(|&a, &b| {
                cols.iter()
                    .map(|xs| xs[a as usize].cmp(&xs[b as usize]))
                    .find(|o| *o != std::cmp::Ordering::Equal)
                    .unwrap_or(std::cmp::Ordering::Equal)
            }),
            None => ids.sort_unstable_by(|&a, &b| self.cmp_rows(a as usize, b as usize)),
        }
    }

    /// A new store holding `rows`'s rows in order (per-column typed
    /// gathers; interners shared).
    pub fn gather(&self, rows: &[RowId]) -> ColumnStore {
        ColumnStore {
            columns: self.columns.iter().map(|c| Arc::new(c.gather(rows))).collect(),
            rows: rows.len(),
        }
    }

    /// Appends `src`'s row (same arity) — the absorb hot path; columns
    /// are copy-on-write, so appending to a store whose columns are
    /// shared detaches them.
    pub fn append_row_from(&mut self, src: &ColumnStore, row: usize) {
        debug_assert_eq!(self.arity(), src.arity());
        for (c, sc) in self.columns.iter_mut().zip(&src.columns) {
            Arc::make_mut(c).push_from(sc, row);
        }
        self.rows += 1;
    }

    /// Appends one row-major tuple (same arity) cell by cell.
    pub fn push_tuple(&mut self, t: &Tuple) {
        debug_assert_eq!(self.arity(), t.arity());
        for (c, v) in self.columns.iter_mut().zip(t.values()) {
            Arc::make_mut(c).push(ValueRef::of(v));
        }
        self.rows += 1;
    }

    /// Concatenates two same-arity stores (the `Union` kernel).
    pub fn concat(&self, other: &ColumnStore) -> ColumnStore {
        debug_assert_eq!(self.arity(), other.arity());
        let columns = self
            .columns
            .iter()
            .zip(&other.columns)
            .map(|(a, b)| {
                let mut c = (**a).clone();
                c.extend_from(b);
                Arc::new(c)
            })
            .collect();
        ColumnStore { columns, rows: self.rows + other.rows }
    }

    /// Whole-row equality across stores, under the total order.
    pub fn rows_equal(&self, row: usize, other: &ColumnStore, orow: usize) -> bool {
        debug_assert_eq!(self.arity(), other.arity());
        self.columns
            .iter()
            .zip(&other.columns)
            .all(|(a, b)| a.cell_eq(row, b, orow))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    fn ints(xs: &[i64]) -> Column {
        let mut c = Column::new();
        for &x in xs {
            c.push(ValueRef::Int(x));
        }
        c
    }

    #[test]
    fn empty_column_adopts_the_first_value_type() {
        let c = ints(&[1, 2, 3]);
        assert!(matches!(c.data(), ColumnData::Int(_)));
        assert_eq!(c.get(1).total_cmp(ValueRef::Int(2)), Ordering::Equal);
    }

    #[test]
    fn mixed_numerics_demote_instead_of_widening() {
        let mut c = ints(&[1]);
        c.push(ValueRef::Float(2.5));
        assert!(matches!(c.data(), ColumnData::Mixed(_)));
        // The int cell stays an Int — rendering fidelity, not widening.
        assert!(matches!(c.get(0), ValueRef::Int(1)));
        assert!(matches!(c.get(1), ValueRef::Float(_)));
    }

    #[test]
    fn nulls_materialize_a_validity_bitmap() {
        let mut c = ints(&[7]);
        c.push(ValueRef::Null);
        c.push(ValueRef::Int(9));
        assert!(matches!(c.data(), ColumnData::Int(_)), "repr stays typed");
        assert!(c.get(1).is_null());
        assert!(!c.get(2).is_null());
        let v = c.validity().expect("bitmap materialized");
        assert_eq!((v.get(0), v.get(1), v.get(2)), (true, false, true));
        // Gather carries validity along.
        let g = c.gather(&[1, 0]);
        assert!(g.get(0).is_null());
        assert!(matches!(g.get(1), ValueRef::Int(7)));
    }

    #[test]
    fn interner_dedups_within_one_generation() {
        let mut c = Column::new();
        for s in ["a", "b", "a", "a"] {
            c.push(ValueRef::Str(s));
        }
        let ColumnData::Str { ids, interner } = c.data() else {
            panic!("expected interned strings")
        };
        assert_eq!(interner.len(), 2, "distinct strings stored once");
        assert_eq!(ids[0], ids[2], "same string, same id");
        assert_ne!(ids[0], ids[1]);
        assert_eq!(interner.lookup("b"), Some(ids[1]));
        assert_eq!(interner.lookup("zzz"), None);
    }

    /// The satellite-3 contract at the unit level: two columns whose
    /// interner *generations* differ assign ids in different orders, so
    /// cell equality must resolve string content, never compare raw ids.
    #[test]
    fn cross_generation_equality_ignores_ids() {
        let mut a = Column::new();
        for s in ["x", "y"] {
            a.push(ValueRef::Str(s));
        }
        let mut b = Column::new();
        for s in ["y", "x"] {
            b.push(ValueRef::Str(s));
        }
        // Numeric id collision with different contents:
        // a: x=0, y=1 — b: y=0, x=1.
        assert!(a.cell_eq(0, &b, 1), "same string, different ids");
        assert!(!a.cell_eq(0, &b, 0), "same id, different strings");
        // Same generation (gather shares the interner): ids compare.
        let g = a.gather(&[1, 0]);
        assert!(a.cell_eq(1, &g, 0));
        assert!(!a.cell_eq(0, &g, 0));
    }

    #[test]
    fn push_from_shares_the_source_interner_generation() {
        let mut src = Column::new();
        for s in ["p", "q", "p"] {
            src.push(ValueRef::Str(s));
        }
        let mut dst = Column::new();
        dst.push_from(&src, 1);
        dst.push_from(&src, 0);
        let (ColumnData::Str { interner: si, .. }, ColumnData::Str { ids, interner: di }) =
            (src.data(), dst.data())
        else {
            panic!("expected interned strings")
        };
        assert!(Arc::ptr_eq(si, di), "empty column adopts the source generation");
        assert_eq!(ids, &[si.lookup("q").unwrap(), si.lookup("p").unwrap()]);
    }

    #[test]
    fn bitmap_ops_and_tail_masking() {
        let mut a = Bitmap::zeros(70);
        a.set(0);
        a.set(64);
        a.set(69);
        assert_eq!(a.count_ones(), 3);
        let mut b = Bitmap::ones(70);
        b.negate();
        assert_eq!(b.count_ones(), 0, "negating all-ones clears everything");
        b.or_with(&a);
        assert_eq!(b.count_ones(), 3);
        b.negate();
        assert_eq!(b.count_ones(), 67, "tail bits past len stay clear");
        b.and_with(&a);
        assert_eq!(b.count_ones(), 0);
        let mut out = Vec::new();
        a.collect_ones(100, &mut out);
        assert_eq!(out, vec![100, 164, 169]);
    }

    #[test]
    fn store_roundtrip_and_gather() {
        let tuples = vec![
            Tuple::of((1, "x", 2.5)),
            Tuple::of((2, "y", -0.0)),
            Tuple::of((3, "x", f64::NAN)),
        ];
        let s = ColumnStore::from_tuples(3, &tuples);
        assert_eq!((s.len(), s.arity()), (3, 3));
        let back = s.to_tuples();
        for (a, b) in back.iter().zip(&tuples) {
            assert_eq!(a.cmp(b), Ordering::Equal);
        }
        // Bit-level float fidelity through the columnar representation.
        assert!(matches!(back[1].values()[2], Value::Float(f) if f.to_bits() == (-0.0f64).to_bits()));
        let g = s.gather(&[2, 0]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.tuple_at(1).cmp(&tuples[0]), Ordering::Equal);
        assert!(s.rows_equal(0, &g, 1));
        assert!(!s.rows_equal(1, &g, 0));
    }

    #[test]
    fn concat_reinterns_across_generations() {
        let a = ColumnStore::from_tuples(1, &[Tuple::of(("m",)), Tuple::of(("n",))]);
        let b = ColumnStore::from_tuples(1, &[Tuple::of(("n",)), Tuple::of(("o",))]);
        let c = a.concat(&b);
        assert_eq!(c.len(), 4);
        let ColumnData::Str { interner, .. } = c.col(0).data() else {
            panic!("expected interned strings")
        };
        assert_eq!(interner.len(), 3, "m, n, o — n dedups across the seam");
        assert!(c.rows_equal(1, &c, 2), "n == n across the concat seam");
    }

    #[test]
    fn zero_arity_stores_count_rows() {
        let s = ColumnStore::from_tuples(0, &[Tuple::new(vec![]), Tuple::new(vec![])]);
        assert_eq!((s.len(), s.arity()), (2, 0));
        let g = s.gather(&[0]);
        assert_eq!(g.len(), 1);
        assert_eq!(g.tuple_at(0).arity(), 0);
    }

    #[test]
    #[should_panic(expected = "row-id width")]
    fn row_id_narrowing_panics_instead_of_truncating() {
        let _ = row_id(u32::MAX as usize + 1);
    }
}
