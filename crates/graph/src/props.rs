//! Vertex property storage.
//!
//! The paper stresses (§II, §III) that real graphs differ from academic
//! kernels in carrying "1000s of properties" per vertex, accumulated as
//! analysts run one-time analytics whose outputs are written back to the
//! persistent graph. [`PropertyStore`] models exactly that: an open-ended
//! set of *named, typed columns* over a vertex range, with a write-back
//! API the Fig. 2 flow engine uses, and projection support so subgraph
//! extraction can copy "only a small subset of the properties".

use crate::VertexId;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// A single property value.
#[derive(Clone, Debug, PartialEq)]
pub enum PropValue {
    /// Unsigned integer property (counts, ids, flags).
    U64(u64),
    /// Floating-point property (scores, centralities).
    F64(f64),
    /// String property (names, labels).
    Str(String),
}

impl From<u64> for PropValue {
    fn from(x: u64) -> Self {
        PropValue::U64(x)
    }
}
impl From<f64> for PropValue {
    fn from(x: f64) -> Self {
        PropValue::F64(x)
    }
}
impl From<&str> for PropValue {
    fn from(x: &str) -> Self {
        PropValue::Str(x.to_string())
    }
}
impl From<String> for PropValue {
    fn from(x: String) -> Self {
        PropValue::Str(x)
    }
}

/// A numeric column: one value per slot plus a presence bitmap, 8 B
/// and one bit a slot. An absent slot holds `T::default()` and every
/// bit past `values.len()` is clear, so derived equality compares
/// contents.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Dense<T> {
    values: Vec<T>,
    present: Vec<u64>,
}

impl<T: Copy + Default> Dense<T> {
    /// `len` absent slots.
    fn new(len: usize) -> Self {
        Dense {
            values: vec![T::default(); len],
            present: vec![0; len.div_ceil(64)],
        }
    }

    /// Every slot present.
    fn full(values: Vec<T>) -> Self {
        let mut present = vec![!0u64; values.len().div_ceil(64)];
        let tail = values.len() % 64;
        if let Some(last) = present.last_mut().filter(|_| tail != 0) {
            *last = (1 << tail) - 1;
        }
        Dense { values, present }
    }

    /// Empty, with room for `cap` slots before reallocating.
    pub(crate) fn with_capacity(cap: usize) -> Self {
        Dense {
            values: Vec::with_capacity(cap),
            present: Vec::with_capacity(cap.div_ceil(64)),
        }
    }

    fn len(&self) -> usize {
        self.values.len()
    }

    /// Append one slot.
    pub(crate) fn push(&mut self, x: Option<T>) {
        let i = self.values.len();
        if i.is_multiple_of(64) {
            self.present.push(0);
        }
        self.values.push(x.unwrap_or_default());
        if x.is_some() {
            self.present[i / 64] |= 1 << (i % 64);
        }
    }

    /// Grow to `len` slots; the new ones are absent.
    fn grow(&mut self, len: usize) {
        if len > self.values.len() {
            self.values.resize(len, T::default());
            self.present.resize(len.div_ceil(64), 0);
        }
    }

    fn set(&mut self, i: usize, x: T) {
        self.values[i] = x;
        self.present[i / 64] |= 1 << (i % 64);
    }

    pub(crate) fn get(&self, i: usize) -> Option<T> {
        let word = *self.present.get(i / 64)?;
        (word >> (i % 64) & 1 == 1).then(|| self.values[i])
    }

    fn count(&self) -> usize {
        self.present.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Every slot in order, `None` where absent.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Option<T>> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// The present slots in order as `(slot, value)`: a walk over the
    /// set bits of each presence word.
    fn present_slots(&self) -> impl Iterator<Item = (VertexId, T)> + '_ {
        self.present.iter().enumerate().flat_map(move |(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                let b = (bits != 0).then(|| bits.trailing_zeros() as usize)?;
                bits &= bits - 1;
                Some(((w * 64 + b) as VertexId, self.values[w * 64 + b]))
            })
        })
    }
}

/// One typed column. Numeric columns are [`Dense`]; strings keep an
/// `Option` per slot.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Column {
    U64(Dense<u64>),
    F64(Dense<f64>),
    Str(Vec<Option<String>>),
}

impl Column {
    fn new_for(value: &PropValue, len: usize) -> Column {
        match value {
            PropValue::U64(_) => Column::U64(Dense::new(len)),
            PropValue::F64(_) => Column::F64(Dense::new(len)),
            PropValue::Str(_) => Column::Str(vec![None; len]),
        }
    }

    /// Grow to `len` slots (never shrinks); the new ones are absent.
    fn grow(&mut self, len: usize) {
        match self {
            Column::U64(v) => v.grow(len),
            Column::F64(v) => v.grow(len),
            Column::Str(v) if len > v.len() => v.resize(len, None),
            Column::Str(_) => {}
        }
    }

    fn set(&mut self, v: VertexId, value: PropValue) -> bool {
        let i = v as usize;
        match (self, value) {
            (Column::U64(col), PropValue::U64(x)) => {
                col.set(i, x);
                true
            }
            (Column::F64(col), PropValue::F64(x)) => {
                col.set(i, x);
                true
            }
            (Column::Str(col), PropValue::Str(x)) => {
                col[i] = Some(x);
                true
            }
            _ => false,
        }
    }

    fn get(&self, v: VertexId) -> Option<PropValue> {
        let i = v as usize;
        match self {
            Column::U64(col) => col.get(i).map(PropValue::U64),
            Column::F64(col) => col.get(i).map(PropValue::F64),
            Column::Str(col) => col.get(i)?.clone().map(PropValue::Str),
        }
    }

    /// Slot `v` as f64; a Str column has no numeric value.
    fn get_f64(&self, v: VertexId) -> Option<f64> {
        let i = v as usize;
        match self {
            Column::U64(col) => col.get(i).map(|x| x as f64),
            Column::F64(col) => col.get(i),
            Column::Str(_) => None,
        }
    }

    fn count(&self) -> usize {
        match self {
            Column::U64(col) => col.count(),
            Column::F64(col) => col.count(),
            Column::Str(col) => col.iter().filter(|x| x.is_some()).count(),
        }
    }
}

/// A top-k candidate ordered by rank: larger [`total_key`] first, then
/// smaller id first, so `a > b` means `a` ranks higher. Every top-k in
/// the workspace ranks in this order: `total_cmp` descending, then id
/// ascending.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Ranked(i64, Reverse<VertexId>);

impl Ranked {
    fn new(x: f64, v: VertexId) -> Self {
        Ranked(total_key(x.to_bits()), Reverse(v))
    }

    /// `(vertex, value)`, the value bit for bit as offered.
    fn unpack(self) -> (VertexId, f64) {
        (self.1 .0, f64::from_bits(total_key(self.0 as u64) as u64))
    }
}

/// An f64's bits as an integer that orders as [`f64::total_cmp`] orders
/// the f64: the sign bit stays, and a negative value flips its other
/// bits. The flip undoes itself.
fn total_key(bits: u64) -> i64 {
    let b = bits as i64;
    b ^ (((b >> 63) as u64) >> 1) as i64
}

/// The best `k` of at most `n` candidates, best first in [`Ranked`]
/// order, in one pass through a bounded min-heap whose root is the worst
/// kept. The heap reserves what the input can fill, so any `k` is safe.
fn best_k(
    k: usize,
    n: usize,
    candidates: impl Iterator<Item = (VertexId, f64)>,
) -> Vec<(VertexId, f64)> {
    let mut kept = BinaryHeap::with_capacity(k.min(n));
    // `for_each`, not `for`: a flattened walk folds word by word.
    candidates.for_each(|(v, x)| {
        let c = Ranked::new(x, v);
        if kept.len() < k {
            kept.push(Reverse(c));
        } else if let Some(mut worst) = kept.peek_mut() {
            if c > worst.0 {
                *worst = Reverse(c);
            }
        }
    });
    kept.into_sorted_vec()
        .into_iter()
        .map(|Reverse(c)| c.unpack())
        .collect()
}

/// The `k` vertices of `0..n` with the largest `metric` (vertices where
/// it is `None` are skipped), best first: `total_cmp` descending, then
/// id ascending — the order of [`PropertyStore::top_k_f64`]. One pass,
/// O(n log k).
pub fn top_k_by(
    n: usize,
    k: usize,
    metric: impl Fn(VertexId) -> Option<f64>,
) -> Vec<(VertexId, f64)> {
    best_k(
        k,
        n,
        (0..n as VertexId).filter_map(|v| Some((v, metric(v)?))),
    )
}

/// Named, typed vertex property columns.
///
/// ```
/// use ga_graph::{PropertyStore, PropValue};
/// let mut props = PropertyStore::new(4);
/// props.set("pagerank", 0, 0.4);
/// props.set("pagerank", 3, 0.1);
/// props.set("label", 0, "hub");
/// assert_eq!(props.get("pagerank", 0), Some(PropValue::F64(0.4)));
/// assert_eq!(props.get("pagerank", 1), None);
/// let top = props.top_k_f64("pagerank", 1);
/// assert_eq!(top, vec![(0, 0.4)]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct PropertyStore {
    num_vertices: usize,
    pub(crate) columns: BTreeMap<String, Column>,
    /// Process-local mutation stamp: bumped on every successful write,
    /// never persisted (a recovered store restarts at 0). Snapshot
    /// publication pairs it with the CSR epoch so concurrent readers can
    /// prove graph and properties come from one consistent generation.
    version: u64,
}

/// Equality compares contents only — the process-local [`Self::version`]
/// stamp is excluded so checkpoint round-trips stay `==`.
impl PartialEq for PropertyStore {
    fn eq(&self, other: &Self) -> bool {
        self.num_vertices == other.num_vertices && self.columns == other.columns
    }
}

impl PropertyStore {
    /// Store over `num_vertices` vertices with no columns yet.
    pub fn new(num_vertices: usize) -> Self {
        PropertyStore {
            num_vertices,
            columns: BTreeMap::new(),
            version: 0,
        }
    }

    /// Number of vertices this store covers.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Process-local mutation stamp: moves on every successful write
    /// (`set`, bulk column writes, `grow`)
    /// and is *not* persisted across checkpoints. Equal versions on the
    /// same store instance mean no column changed in between.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Grow the vertex range (new slots have no values). Shrinking is a
    /// no-op — the store never loses data to a stale smaller size.
    pub fn grow(&mut self, num_vertices: usize) {
        if num_vertices <= self.num_vertices {
            return;
        }
        self.num_vertices = num_vertices;
        self.version += 1;
        for col in self.columns.values_mut() {
            col.grow(num_vertices);
        }
    }

    /// Set `name[v] = value`, creating the column (typed by the first
    /// value written) on demand. Returns false on a type mismatch with an
    /// existing column or an out-of-range vertex — never panics, so a
    /// malformed streamed update can't take the ingest path down.
    pub fn set(&mut self, name: &str, v: VertexId, value: impl Into<PropValue>) -> bool {
        if (v as usize) >= self.num_vertices {
            return false;
        }
        let value = value.into();
        let n = self.num_vertices;
        let col = self
            .columns
            .entry(name.to_string())
            .or_insert_with(|| Column::new_for(&value, n));
        col.grow(n);
        let ok = col.set(v, value);
        if ok {
            self.version += 1;
        }
        ok
    }

    /// Bulk write-back of an entire `f64` column (the common case: a
    /// batch analytic computing "a new property for each vertex").
    pub fn set_column_f64(&mut self, name: &str, values: &[f64]) {
        assert_eq!(values.len(), self.num_vertices);
        let col = Column::F64(Dense::full(values.to_vec()));
        self.columns.insert(name.to_string(), col);
        self.version += 1;
    }

    /// Bulk write-back of an entire `u64` column.
    pub fn set_column_u64(&mut self, name: &str, values: &[u64]) {
        assert_eq!(values.len(), self.num_vertices);
        let col = Column::U64(Dense::full(values.to_vec()));
        self.columns.insert(name.to_string(), col);
        self.version += 1;
    }

    /// Read `name[v]`.
    pub fn get(&self, name: &str, v: VertexId) -> Option<PropValue> {
        self.columns.get(name)?.get(v)
    }

    /// Read `name[v]` as f64 (numeric columns only).
    pub fn get_f64(&self, name: &str, v: VertexId) -> Option<f64> {
        self.columns.get(name)?.get_f64(v)
    }

    /// `name` looked up once: the returned reader answers
    /// [`Self::get_f64`]`(name, v)` for every `v`, so a scan pays one
    /// map lookup, not one per vertex.
    pub fn column_f64(&self, name: &str) -> impl Fn(VertexId) -> Option<f64> + '_ {
        let col = self.columns.get(name);
        move |v| col?.get_f64(v)
    }

    /// Does the column exist?
    pub fn has_column(&self, name: &str) -> bool {
        self.columns.contains_key(name)
    }

    /// All column names (sorted).
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.keys().map(|s| s.as_str()).collect()
    }

    /// Number of set values in a column.
    pub fn column_count(&self, name: &str) -> usize {
        self.columns.get(name).map_or(0, |c| c.count())
    }

    /// The `k` vertices with the largest numeric value in `name`
    /// (descending; ties broken by vertex id). This is the "scan for the
    /// top-k vertices with the highest values of some properties" seed
    /// selection from §III.
    ///
    /// Values order by `total_cmp`, so a NaN smuggled into a column
    /// gets a deterministic rank instead of panicking the selection. One
    /// pass over the column keeps the best `k` in a bounded heap:
    /// O(n log k), no per-vertex allocation or lookup.
    pub fn top_k_f64(&self, name: &str, k: usize) -> Vec<(VertexId, f64)> {
        match self.columns.get(name) {
            Some(Column::F64(col)) => best_k(k, col.len(), col.present_slots()),
            Some(Column::U64(col)) => {
                let slots = col.present_slots().map(|(v, x)| (v, x as f64));
                best_k(k, col.len(), slots)
            }
            Some(Column::Str(_)) | None => Vec::new(),
        }
    }

    /// Vertices whose numeric value satisfies the predicate — the
    /// "search for all vertices with a particular property" operation.
    pub fn select_f64(&self, name: &str, pred: impl Fn(f64) -> bool) -> Vec<VertexId> {
        let read = self.column_f64(name);
        (0..self.num_vertices as VertexId)
            .filter(|&v| read(v).is_some_and(&pred))
            .collect()
    }

    /// Copy the listed columns for the listed vertices into a fresh store
    /// indexed by position in `vertices` — the projection step of
    /// subgraph extraction (Fig. 2: "copy only a small subset of the
    /// properties").
    pub fn project(&self, vertices: &[VertexId], columns: &[&str]) -> PropertyStore {
        let mut out = PropertyStore::new(vertices.len());
        for &name in columns {
            if let Some(col) = self.columns.get(name) {
                for (new_id, &old_id) in vertices.iter().enumerate() {
                    if let Some(value) = col.get(old_id) {
                        out.set(name, new_id as VertexId, value);
                    }
                }
            }
        }
        out
    }

    /// Rebuild a store from checkpointed columns (the io codec's entry
    /// point).
    pub(crate) fn from_raw_parts(
        num_vertices: usize,
        columns: BTreeMap<String, Column>,
    ) -> PropertyStore {
        PropertyStore {
            num_vertices,
            columns,
            version: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn typed_columns() {
        let mut p = PropertyStore::new(3);
        assert!(p.set("deg", 0, 5u64));
        assert!(p.set("score", 1, 0.5));
        assert!(p.set("name", 2, "alice"));
        assert_eq!(p.get("deg", 0), Some(PropValue::U64(5)));
        assert_eq!(p.get("score", 1), Some(PropValue::F64(0.5)));
        assert_eq!(p.get("name", 2), Some(PropValue::Str("alice".into())));
        assert_eq!(p.column_names(), vec!["deg", "name", "score"]);
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut p = PropertyStore::new(2);
        p.set("deg", 0, 5u64);
        assert!(!p.set("deg", 1, 0.5));
        assert_eq!(p.get("deg", 1), None);
    }

    #[test]
    fn missing_values_are_none() {
        let mut p = PropertyStore::new(3);
        p.set("x", 1, 1.0);
        assert_eq!(p.get("x", 0), None);
        assert_eq!(p.get("y", 0), None);
        assert_eq!(p.column_count("x"), 1);
    }

    #[test]
    fn bulk_columns_and_topk() {
        let mut p = PropertyStore::new(5);
        p.set_column_f64("pr", &[0.1, 0.5, 0.3, 0.5, 0.0]);
        let top = p.top_k_f64("pr", 3);
        assert_eq!(top, vec![(1, 0.5), (3, 0.5), (2, 0.3)]);
        p.set_column_u64("deg", &[9, 0, 0, 0, 2]);
        assert_eq!(p.top_k_f64("deg", 1), vec![(0, 9.0)]);
    }

    #[test]
    fn select_predicate() {
        let mut p = PropertyStore::new(4);
        p.set_column_f64("pr", &[0.1, 0.9, 0.4, 0.8]);
        assert_eq!(p.select_f64("pr", |x| x > 0.5), vec![1, 3]);
        assert!(p.select_f64("missing", |_| true).is_empty());
    }

    #[test]
    fn grow_extends_columns() {
        let mut p = PropertyStore::new(2);
        p.set("x", 0, 1.0);
        p.grow(4);
        assert_eq!(p.num_vertices(), 4);
        assert!(p.set("x", 3, 4.0));
        assert_eq!(p.get_f64("x", 3), Some(4.0));
    }

    #[test]
    fn project_selects_rows_and_columns() {
        let mut p = PropertyStore::new(6);
        p.set_column_f64("pr", &[0.0, 0.1, 0.2, 0.3, 0.4, 0.5]);
        p.set("label", 4, "seed");

        // Extract vertices 4 and 2 (in that order), pr column only.
        let sub = p.project(&[4, 2], &["pr"]);
        assert_eq!(sub.num_vertices(), 2);
        assert_eq!(sub.get_f64("pr", 0), Some(0.4));
        assert_eq!(sub.get_f64("pr", 1), Some(0.2));
        assert!(!sub.has_column("label"));
    }

    #[test]
    fn out_of_range_set_is_rejected_not_fatal() {
        let mut p = PropertyStore::new(2);
        assert!(!p.set("x", 5, 1.0));
        assert!(!p.has_column("x") || p.get("x", 5).is_none());
        // Shrinking grow is ignored.
        p.set("x", 1, 1.0);
        p.grow(1);
        assert_eq!(p.num_vertices(), 2);
        assert_eq!(p.get_f64("x", 1), Some(1.0));
    }

    #[test]
    fn nan_in_column_does_not_panic_selection() {
        let mut p = PropertyStore::new(3);
        p.set_column_f64("x", &[0.5, f64::NAN, 0.9]);
        let top = p.top_k_f64("x", 3);
        assert_eq!(top.len(), 3);
        // The finite values keep their relative order.
        let finite: Vec<_> = top.iter().filter(|(_, x)| x.is_finite()).collect();
        assert_eq!(finite[0].0, 2);
        assert_eq!(finite[1].0, 0);
        assert_eq!(p.select_f64("x", |x| x > 0.4), vec![0, 2]);
    }

    #[test]
    fn signed_zeros_and_monotone_columns_rank_exactly() {
        let mut p = PropertyStore::new(200);
        // Two -0.0 fill k = 2 first; a later +0.0 outranks them though
        // the two compare equal as f64.
        let mut x = vec![-1.0; 130];
        (x[3], x[5], x[70]) = (-0.0, -0.0, 0.0);
        x.resize(200, -1.0);
        p.set_column_f64("x", &x);
        assert_eq!(
            bits(p.top_k_f64("x", 2)),
            vec![(70, 0.0f64.to_bits()), (3, (-0.0f64).to_bits())]
        );
        // Descending values: the first `k` are kept, nothing after.
        let desc: Vec<f64> = (0..200).map(|i| -(i as f64)).collect();
        p.set_column_f64("d", &desc);
        let want: Vec<_> = (0..100).map(|i| (i, -(i as f64))).collect();
        assert_eq!(p.top_k_f64("d", 100), want);
        // Ascending values: every slot replaces the heap's root.
        let asc: Vec<f64> = (0..200).map(|i| i as f64).collect();
        p.set_column_f64("a", &asc);
        assert_eq!(
            p.top_k_f64("a", 3),
            vec![(199, 199.0), (198, 198.0), (197, 197.0)]
        );
    }

    #[test]
    fn any_k_returns_every_present_slot_in_rank_order() {
        // The heap reserves what the column can fill, not `k`.
        let mut p = PropertyStore::new(70);
        p.set("x", 3, 0.5);
        p.set("x", 66, 2.0);
        p.set("x", 9, 0.5);
        p.set("n", 1, 4u64);
        let want = vec![(66, 2.0), (3, 0.5), (9, 0.5)];
        assert_eq!(p.top_k_f64("x", usize::MAX), want);
        assert_eq!(p.top_k_f64("x", 1 << 40), want);
        assert_eq!(p.top_k_f64("n", usize::MAX), vec![(1, 4.0)]);
        let by = top_k_by(70, usize::MAX, p.column_f64("x"));
        assert_eq!(by, want);
        assert!(top_k_by(0, usize::MAX, |_| Some(1.0)).is_empty());
    }

    #[test]
    fn version_moves_on_writes_only() {
        let mut p = PropertyStore::new(3);
        assert_eq!(p.version(), 0);
        assert!(p.set("x", 0, 1.0));
        let v1 = p.version();
        assert!(v1 > 0);
        // Reads and rejected writes leave the stamp alone.
        let _ = p.get("x", 0);
        assert!(!p.set("x", 9, 1.0));
        assert!(!p.set("x", 1, 5u64)); // type mismatch
        assert_eq!(p.version(), v1);
        p.set_column_f64("y", &[0.0, 1.0, 2.0]);
        assert!(p.version() > v1);
        let v2 = p.version();
        p.grow(2); // shrinking grow: no-op
        assert_eq!(p.version(), v2);
        p.grow(5);
        assert!(p.version() > v2);
        // Equality ignores the process-local stamp.
        let q = p.clone();
        assert_eq!(p, q);
    }

    #[test]
    fn u64_column_as_f64() {
        let mut p = PropertyStore::new(2);
        p.set("deg", 0, 7u64);
        assert_eq!(p.get_f64("deg", 0), Some(7.0));
    }

    /// The reference top-k: every present slot, fully sorted, cut to `k`.
    fn full_sort_top_k(slots: &[Option<f64>], k: usize) -> Vec<(VertexId, u64)> {
        let mut all: Vec<(VertexId, f64)> = slots
            .iter()
            .enumerate()
            .filter_map(|(v, x)| x.map(|x| (v as VertexId, x)))
            .collect();
        all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        all.into_iter()
            .take(k)
            .map(|(v, x)| (v, x.to_bits()))
            .collect()
    }

    fn bits(r: Vec<(VertexId, f64)>) -> Vec<(VertexId, u64)> {
        r.into_iter().map(|(v, x)| (v, x.to_bits())).collect()
    }

    /// Slot palettes: ties, ±0.0, ±∞, both NaN signs (last, so a
    /// narrow case has none), and u64 values that round to one f64
    /// (2^53 and 2^53 + 1). Picks past the f64 palette are distinct
    /// finite values.
    const F64S: [f64; 10] = [
        0.0,
        -0.0,
        1.0,
        1.0,
        -2.5,
        0.5,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
    ];
    const U64S: [u64; 6] = [0, 1, 7, 7, 1 << 53, (1 << 53) + 1];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn top_k_matches_a_full_sort((n, len, width, picks, k) in (0usize..300).prop_flat_map(|n| {
            let slot = (0u8..4, 0usize..40);
            (Just(n), 0..n + 1, 1usize..41, prop::collection::vec(slot, n..n + 1), 0..n + 3)
        })) {
            // Columns of `len` ≤ n slots: a shorter column's tail is
            // absent. A quarter of the slots are absent.
            let picks: Vec<Option<usize>> = picks[..len]
                .iter()
                .map(|&(absent, i)| (absent != 0).then_some(i % width))
                .collect();
            let f: Vec<Option<f64>> = picks
                .iter()
                .map(|p| p.map(|i| F64S.get(i).copied().unwrap_or(i as f64 / 3.0)))
                .collect();
            let u: Vec<Option<u64>> = picks.iter().map(|p| p.map(|i| U64S[i % U64S.len()])).collect();
            let (mut fd, mut ud) = (Dense::with_capacity(0), Dense::new(len));
            for (i, &x) in f.iter().enumerate() {
                fd.push(x);
                if let Some(x) = u[i] {
                    ud.set(i, x);
                }
            }
            // Pushed, set and full columns hold what was written.
            let f_bits = |c: &mut dyn Iterator<Item = Option<f64>>| -> Vec<Option<u64>> {
                c.map(|x| x.map(f64::to_bits)).collect()
            };
            prop_assert_eq!(f_bits(&mut fd.iter()), f_bits(&mut f.iter().copied()));
            prop_assert_eq!(ud.iter().collect::<Vec<_>>(), u.clone());
            prop_assert_eq!(fd.count(), f.iter().flatten().count());
            let all: Vec<u64> = picks.iter().map(|p| p.map_or(9, |i| i as u64)).collect();
            let mut pushed = Dense::with_capacity(0);
            all.iter().for_each(|&x| pushed.push(Some(x)));
            prop_assert_eq!(Dense::full(all), pushed);
            let s = picks.iter().map(|p| p.map(|i| i.to_string())).collect();
            let columns = BTreeMap::from([
                ("f".to_string(), Column::F64(fd)),
                ("u".to_string(), Column::U64(ud)),
                ("s".to_string(), Column::Str(s)),
            ]);
            let p = PropertyStore::from_raw_parts(n, columns);
            let u_as_f64: Vec<Option<f64>> = u.iter().map(|x| x.map(|x| x as f64)).collect();
            prop_assert_eq!(bits(p.top_k_f64("f", k)), full_sort_top_k(&f, k));
            prop_assert_eq!(bits(p.top_k_f64("u", k)), full_sort_top_k(&u_as_f64, k));
            prop_assert_eq!(bits(top_k_by(n, k, p.column_f64("f"))), full_sort_top_k(&f, k));
            prop_assert!(p.top_k_f64("s", k).is_empty());
            prop_assert!(p.top_k_f64("missing", k).is_empty());
            for v in 0..n as VertexId + 1 {
                let want = f.get(v as usize).copied().flatten();
                prop_assert_eq!(p.get_f64("f", v).map(f64::to_bits), want.map(f64::to_bits));
                prop_assert_eq!(p.get_f64("s", v), None);
            }
        }
    }
}
