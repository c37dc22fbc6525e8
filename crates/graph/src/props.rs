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
use std::collections::BTreeMap;

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

/// One typed column, stored densely with a presence mask.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Column {
    U64(Vec<Option<u64>>),
    F64(Vec<Option<f64>>),
    Str(Vec<Option<String>>),
}

impl Column {
    fn new_for(value: &PropValue, len: usize) -> Column {
        match value {
            PropValue::U64(_) => Column::U64(vec![None; len]),
            PropValue::F64(_) => Column::F64(vec![None; len]),
            PropValue::Str(_) => Column::Str(vec![None; len]),
        }
    }

    fn len(&self) -> usize {
        match self {
            Column::U64(v) => v.len(),
            Column::F64(v) => v.len(),
            Column::Str(v) => v.len(),
        }
    }

    fn resize(&mut self, len: usize) {
        match self {
            Column::U64(v) => v.resize(len, None),
            Column::F64(v) => v.resize(len, None),
            Column::Str(v) => v.resize(len, None),
        }
    }

    fn set(&mut self, v: VertexId, value: PropValue) -> bool {
        let i = v as usize;
        match (self, value) {
            (Column::U64(col), PropValue::U64(x)) => {
                col[i] = Some(x);
                true
            }
            (Column::F64(col), PropValue::F64(x)) => {
                col[i] = Some(x);
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
            Column::U64(col) => col.get(i)?.map(PropValue::U64),
            Column::F64(col) => col.get(i)?.map(PropValue::F64),
            Column::Str(col) => col.get(i)?.clone().map(PropValue::Str),
        }
    }

    fn count(&self) -> usize {
        match self {
            Column::U64(col) => col.iter().filter(|x| x.is_some()).count(),
            Column::F64(col) => col.iter().filter(|x| x.is_some()).count(),
            Column::Str(col) => col.iter().filter(|x| x.is_some()).count(),
        }
    }
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
    /// (`set`, bulk column writes, `grow`, `drop_column`, `write_back`)
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
            col.resize(num_vertices);
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
        if col.len() < n {
            col.resize(n);
        }
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
        let col = Column::F64(values.iter().map(|&x| Some(x)).collect());
        self.columns.insert(name.to_string(), col);
        self.version += 1;
    }

    /// Bulk write-back of an entire `u64` column.
    pub fn set_column_u64(&mut self, name: &str, values: &[u64]) {
        assert_eq!(values.len(), self.num_vertices);
        let col = Column::U64(values.iter().map(|&x| Some(x)).collect());
        self.columns.insert(name.to_string(), col);
        self.version += 1;
    }

    /// Read `name[v]`.
    pub fn get(&self, name: &str, v: VertexId) -> Option<PropValue> {
        self.columns.get(name)?.get(v)
    }

    /// Read `name[v]` as f64 (numeric columns only).
    pub fn get_f64(&self, name: &str, v: VertexId) -> Option<f64> {
        match self.get(name, v)? {
            PropValue::F64(x) => Some(x),
            PropValue::U64(x) => Some(x as f64),
            PropValue::Str(_) => None,
        }
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

    /// Drop a column, returning whether it existed.
    pub fn drop_column(&mut self, name: &str) -> bool {
        let removed = self.columns.remove(name).is_some();
        if removed {
            self.version += 1;
        }
        removed
    }

    /// The `k` vertices with the largest numeric value in `name`
    /// (descending; ties broken by vertex id). This is the "scan for the
    /// top-k vertices with the highest values of some properties" seed
    /// selection from §III.
    pub fn top_k_f64(&self, name: &str, k: usize) -> Vec<(VertexId, f64)> {
        let mut all: Vec<(VertexId, f64)> = (0..self.num_vertices as VertexId)
            .filter_map(|v| self.get_f64(name, v).map(|x| (v, x)))
            .collect();
        // total_cmp: a NaN smuggled into a column must not panic the
        // selection path (it gets a deterministic position instead).
        all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    /// Vertices whose numeric value satisfies the predicate — the
    /// "search for all vertices with a particular property" operation.
    pub fn select_f64(&self, name: &str, pred: impl Fn(f64) -> bool) -> Vec<VertexId> {
        (0..self.num_vertices as VertexId)
            .filter(|&v| self.get_f64(name, v).is_some_and(&pred))
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

    /// Merge values from a projected store back into this one (inverse of
    /// [`Self::project`]): `back_map[new_id] = old_id`.
    pub fn write_back(&mut self, projected: &PropertyStore, back_map: &[VertexId]) {
        assert_eq!(projected.num_vertices, back_map.len());
        for name in projected.column_names().into_iter().map(str::to_string) {
            for (new_id, &old_id) in back_map.iter().enumerate() {
                if let Some(value) = projected.get(&name, new_id as VertexId) {
                    self.set(&name, old_id, value);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn project_and_write_back() {
        let mut p = PropertyStore::new(6);
        p.set_column_f64("pr", &[0.0, 0.1, 0.2, 0.3, 0.4, 0.5]);
        p.set("label", 4, "seed");

        // Extract vertices 4 and 2 (in that order), pr column only.
        let sub = p.project(&[4, 2], &["pr"]);
        assert_eq!(sub.num_vertices(), 2);
        assert_eq!(sub.get_f64("pr", 0), Some(0.4));
        assert_eq!(sub.get_f64("pr", 1), Some(0.2));
        assert!(!sub.has_column("label"));

        // Analytic on the subgraph writes a new column; push it back.
        let mut sub = sub;
        sub.set_column_f64("bc", &[9.0, 7.0]);
        p.write_back(&sub, &[4, 2]);
        assert_eq!(p.get_f64("bc", 4), Some(9.0));
        assert_eq!(p.get_f64("bc", 2), Some(7.0));
        assert_eq!(p.get_f64("bc", 0), None);
        // write_back also refreshed pr values at the mapped slots
        assert_eq!(p.get_f64("pr", 4), Some(0.4));
    }

    #[test]
    fn drop_column_works() {
        let mut p = PropertyStore::new(2);
        p.set("x", 0, 1.0);
        assert!(p.drop_column("x"));
        assert!(!p.drop_column("x"));
        assert!(!p.has_column("x"));
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
        let v3 = p.version();
        assert!(p.drop_column("y"));
        assert!(p.version() > v3);
        let v4 = p.version();
        assert!(!p.drop_column("y"));
        assert_eq!(p.version(), v4);
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
}
