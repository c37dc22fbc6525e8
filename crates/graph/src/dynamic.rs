//! STINGER-inspired dynamic property graph.
//!
//! The paper's streaming path (Fig. 2, left side) needs a persistent
//! graph that absorbs "an incoming stream of individually small-scale
//! updates, such as additions or deletions to vertices or edges, or
//! modification of their properties". [`DynamicGraph`] provides that:
//!
//! * per-vertex adjacency rows that hold exactly the live out-edges,
//!   **sorted by destination**, so a lookup is a binary search, an
//!   insert or a delete shifts the row's tail, and a freeze copies each
//!   row whole without sorting or filtering it,
//! * **timestamps** on every edge (paper §II: "edges may have time-stamps
//!   in addition to properties"),
//! * cheap [`DynamicGraph::snapshot`] freezes into a [`CsrGraph`] for the
//!   batch analytics on the right side of Fig. 2.

use crate::{CsrGraph, Edge, Timestamp, VertexId, Weight};

/// One live directed edge slot (16 bytes).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeRecord {
    /// Target vertex.
    pub dst: VertexId,
    /// Edge weight (1.0 when unweighted updates are applied).
    pub weight: Weight,
    /// Time the edge was inserted or last modified.
    pub timestamp: Timestamp,
}

/// A mutable directed multigraph-free graph with timestamps.
///
/// Every row is the strictly `dst`-sorted set of `u`'s live out-edges:
/// an insert of a new destination shifts the tail right, a delete
/// removes its slot. A row is therefore a function of the live edge set
/// alone, so checkpoints, replicas and shard merges agree whenever
/// their live rows do.
///
/// Out-of-range vertex ids never panic: inserts grow the vertex space on
/// demand, deletes report [`ApplyResult::Missing`], and queries return
/// empty/`None` — the hardening the streaming ingest path relies on.
///
/// ```
/// use ga_graph::DynamicGraph;
/// let mut g = DynamicGraph::new(3);
/// g.insert_edge(0, 1, 1.0, 10);
/// g.insert_edge(1, 2, 1.0, 11);
/// assert_eq!(g.num_live_edges(), 2);
/// g.delete_edge(0, 1, 12);
/// assert_eq!(g.num_live_edges(), 1);
/// assert!(!g.has_edge(0, 1));
/// ```
#[derive(Clone, Debug, Default)]
pub struct DynamicGraph {
    adj: Vec<Vec<EdgeRecord>>,
    live_edges: usize,
    last_update: Timestamp,
    /// Monotone structural-change counter; bumped by every mutation that
    /// can alter a row's snapshot content.
    version: u64,
    /// `row_version[u]` = [`Self::version`] value when row `u` last
    /// changed — the dirty-row index [`crate::snapshot::SnapshotCache`]
    /// consults to rebuild only what moved since the previous freeze.
    row_version: Vec<u64>,
}

/// Equality is over graph *content* (rows, timestamps, counters) — the
/// version counters are snapshot-cache metadata and two graphs that
/// hold identical content compare equal regardless of the mutation
/// history that produced them (recovery relies on this).
impl PartialEq for DynamicGraph {
    fn eq(&self, other: &Self) -> bool {
        self.adj == other.adj
            && self.live_edges == other.live_edges
            && self.last_update == other.last_update
    }
}

/// Result of applying a single edge update.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ApplyResult {
    /// A brand-new edge was created.
    Inserted,
    /// The edge already existed; weight/timestamp were refreshed.
    Updated,
    /// An absent edge was deleted (no-op delete).
    Missing,
    /// An existing edge was removed.
    Deleted,
}

impl DynamicGraph {
    /// Create a graph with `num_vertices` vertices and no edges.
    pub fn new(num_vertices: usize) -> Self {
        DynamicGraph {
            adj: vec![Vec::new(); num_vertices],
            live_edges: 0,
            last_update: 0,
            version: 0,
            row_version: vec![0; num_vertices],
        }
    }

    /// Build from an existing snapshot (all edges timestamped `ts`).
    pub fn from_csr(g: &CsrGraph, ts: Timestamp) -> Self {
        let mut d = DynamicGraph::new(g.num_vertices());
        for u in g.vertices() {
            for (v, w) in g.weighted_neighbors(u) {
                d.insert_edge(u, v, w, ts);
            }
        }
        d
    }

    /// Number of vertices (including isolated ones).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Number of live directed edges.
    #[inline]
    pub fn num_live_edges(&self) -> usize {
        self.live_edges
    }

    /// Timestamp of the most recent structural update.
    #[inline]
    pub fn last_update(&self) -> Timestamp {
        self.last_update
    }

    /// Current value of the structural-change counter. Strictly
    /// increases with every content mutation; equal versions mean the
    /// graph (and therefore any snapshot of it) is unchanged.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// True iff row `u`'s content may have changed after the moment the
    /// graph's [`Self::version`] was `since` (out-of-range rows report
    /// `false` — they did not exist, the caller handles growth).
    #[inline]
    pub fn row_changed_since(&self, u: VertexId, since: u64) -> bool {
        self.row_version
            .get(u as usize)
            .is_some_and(|&rv| rv > since)
    }

    /// Bump the change counter and stamp row `u` with it.
    #[inline]
    fn touch_row(&mut self, u: VertexId) {
        self.version += 1;
        self.row_version[u as usize] = self.version;
    }

    /// Grow the row space to `new_len`, stamping the fresh rows dirty so
    /// delta rebuilds notice the graph widened.
    fn grow_rows(&mut self, new_len: usize) {
        self.version += 1;
        self.adj.resize_with(new_len, Vec::new);
        self.row_version.resize(new_len, self.version);
    }

    /// Append `count` fresh isolated vertices, returning the id of the
    /// first one. Covers the paper's "less frequently new vertices" case.
    pub fn add_vertices(&mut self, count: usize) -> VertexId {
        let first = self.adj.len() as VertexId;
        self.grow_rows(self.adj.len() + count);
        first
    }

    /// Insert or refresh the directed edge `u -> v`.
    ///
    /// Returns [`ApplyResult::Inserted`] for a new edge,
    /// [`ApplyResult::Updated`] when the edge existed (its weight and
    /// timestamp are overwritten — the paper's "updating some properties
    /// associated with an existing edge"). Endpoints beyond the current
    /// vertex range grow the graph instead of panicking; callers that
    /// need a hard bound enforce it upstream (see the stream engine's
    /// quarantine).
    pub fn insert_edge(
        &mut self,
        u: VertexId,
        v: VertexId,
        weight: Weight,
        ts: Timestamp,
    ) -> ApplyResult {
        self.last_update = self.last_update.max(ts);
        let hi = u.max(v) as usize;
        if hi >= self.adj.len() {
            self.grow_rows(hi + 1);
        }
        self.touch_row(u);
        let row = &mut self.adj[u as usize];
        let rec = EdgeRecord {
            dst: v,
            weight,
            timestamp: ts,
        };
        match row.binary_search_by_key(&v, |r| r.dst) {
            Ok(i) => {
                row[i] = rec;
                ApplyResult::Updated
            }
            Err(i) => {
                row.insert(i, rec);
                self.live_edges += 1;
                ApplyResult::Inserted
            }
        }
    }

    /// Remove the directed edge `u -> v` if present. Out-of-range
    /// endpoints are a no-op ([`ApplyResult::Missing`]), not a panic.
    pub fn delete_edge(&mut self, u: VertexId, v: VertexId, ts: Timestamp) -> ApplyResult {
        self.last_update = self.last_update.max(ts);
        let Ok(i) = self.row_slots(u).binary_search_by_key(&v, |r| r.dst) else {
            return ApplyResult::Missing;
        };
        self.adj[u as usize].remove(i);
        self.live_edges -= 1;
        self.touch_row(u);
        ApplyResult::Deleted
    }

    /// Remove a vertex by deleting every incident edge (both
    /// directions). The id remains allocated; degree drops to zero.
    pub fn delete_vertex(&mut self, v: VertexId, ts: Timestamp) -> usize {
        let mut removed = 0;
        let out: Vec<VertexId> = self.neighbor_ids(v).collect();
        for u in out {
            if self.delete_edge(v, u, ts) == ApplyResult::Deleted {
                removed += 1;
            }
        }
        for u in 0..self.num_vertices() as VertexId {
            if u != v && self.delete_edge(u, v, ts) == ApplyResult::Deleted {
                removed += 1;
            }
        }
        removed
    }

    /// True if a live edge `u -> v` exists (false for out-of-range `u`).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.edge(u, v).is_some()
    }

    /// The live record for `u -> v`, if any.
    pub fn edge(&self, u: VertexId, v: VertexId) -> Option<&EdgeRecord> {
        let row = self.row_slots(u);
        row.binary_search_by_key(&v, |r| r.dst)
            .ok()
            .map(|i| &row[i])
    }

    /// Live out-degree of `v` (0 for out-of-range ids).
    pub fn degree(&self, v: VertexId) -> usize {
        self.row_slots(v).len()
    }

    /// Iterate live out-edge records of `v` (empty for out-of-range ids).
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = &EdgeRecord> {
        self.row_slots(v).iter()
    }

    /// Iterate live out-neighbor ids of `v`.
    pub fn neighbor_ids(&self, v: VertexId) -> impl ExactSizeIterator<Item = VertexId> + '_ {
        self.row_slots(v).iter().map(|r| r.dst)
    }

    /// Iterate all live edges as `(src, dst, weight, timestamp)`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId, Weight, Timestamp)> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, row)| {
            row.iter()
                .map(move |r| (u as VertexId, r.dst, r.weight, r.timestamp))
        })
    }

    /// Freeze the live edges into an immutable weighted [`CsrGraph`]
    /// snapshot — the hand-off from the streaming side of Fig. 2 to the
    /// batch side.
    ///
    /// Runs the row-wise freeze ([`crate::snapshot::freeze`]) over
    /// [`Self::row_slots`]: offsets come from a counting pass over row
    /// lengths and each already-sorted row is copied whole (in parallel
    /// for large graphs), so no `(u, v, w)` tuple vector is materialized
    /// and no sort runs. Output is bit-identical to feeding
    /// [`Self::edges`] through `CsrBuilder`, which the tests keep as
    /// the oracle.
    pub fn snapshot(&self) -> CsrGraph {
        crate::snapshot::freeze(
            self.num_vertices(),
            self.live_edges,
            |v| self.row_slots(v),
            crate::par::Parallelism::Auto,
        )
    }

    /// Apply the edge list of `g` as undirected inserts (helper for tests
    /// and generators).
    pub fn insert_undirected(&mut self, edges: &[Edge], ts: Timestamp) {
        for &(u, v) in edges {
            self.insert_edge(u, v, 1.0, ts);
            self.insert_edge(v, u, 1.0, ts);
        }
    }

    /// The slot row of vertex `v`: its live out-edges, sorted by `dst`.
    /// The checkpoint codec writes these verbatim, and sharded routers
    /// lift owned rows out of a shard with it, so a merged graph can be
    /// compared row-for-row against an unsharded run. Empty for
    /// out-of-range ids (a shard that never saw an edge near `v` simply
    /// has no row for it).
    #[inline]
    pub fn row_slots(&self, v: VertexId) -> &[EdgeRecord] {
        self.adj.get(v as usize).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Assemble a graph from slot rows, each strictly sorted by `dst`;
    /// the live count is recomputed, versions reset to zero. Inverse of
    /// reading every row via [`Self::row_slots`].
    pub fn from_rows(adj: Vec<Vec<EdgeRecord>>, last_update: Timestamp) -> Self {
        debug_assert!(
            adj.iter()
                .all(|row| row.windows(2).all(|p| p[0].dst < p[1].dst)),
            "rows must be strictly sorted by dst"
        );
        let live_edges = adj.iter().map(Vec::len).sum();
        let rows = adj.len();
        DynamicGraph {
            adj,
            live_edges,
            last_update,
            version: 0,
            row_version: vec![0; rows],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_update_delete_cycle() {
        let mut g = DynamicGraph::new(3);
        assert_eq!(g.insert_edge(0, 1, 1.0, 1), ApplyResult::Inserted);
        assert_eq!(g.insert_edge(0, 1, 2.0, 2), ApplyResult::Updated);
        assert_eq!(g.edge(0, 1).unwrap().weight, 2.0);
        assert_eq!(g.edge(0, 1).unwrap().timestamp, 2);
        assert_eq!(g.delete_edge(0, 1, 3), ApplyResult::Deleted);
        assert_eq!(g.delete_edge(0, 1, 4), ApplyResult::Missing);
        assert_eq!(g.num_live_edges(), 0);
        assert!(g.row_slots(0).is_empty(), "a delete removes its slot");
        // Re-inserting after the delete is a new edge again.
        assert_eq!(g.insert_edge(0, 1, 5.0, 5), ApplyResult::Inserted);
        assert_eq!(g.edge(0, 1).unwrap().weight, 5.0);
    }

    #[test]
    fn an_edge_record_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<EdgeRecord>(), 16);
    }

    #[test]
    fn degree_counts_live_edges() {
        let mut g = DynamicGraph::new(4);
        g.insert_edge(0, 1, 1.0, 1);
        g.insert_edge(0, 2, 1.0, 1);
        g.insert_edge(0, 3, 1.0, 1);
        g.delete_edge(0, 2, 2);
        assert_eq!(g.degree(0), 2);
        let ids: Vec<_> = g.neighbor_ids(0).collect();
        assert_eq!(ids, vec![1, 3]);
        assert_eq!(g.row_slots(0).len(), 2);
    }

    #[test]
    fn vertex_deletion_clears_both_directions() {
        let mut g = DynamicGraph::new(3);
        g.insert_edge(0, 1, 1.0, 1);
        g.insert_edge(1, 2, 1.0, 1);
        g.insert_edge(2, 1, 1.0, 1);
        let removed = g.delete_vertex(1, 5);
        assert_eq!(removed, 3);
        assert_eq!(g.num_live_edges(), 0);
        assert_eq!(g.degree(1), 0);
    }

    #[test]
    fn add_vertices_extends() {
        let mut g = DynamicGraph::new(2);
        let first = g.add_vertices(3);
        assert_eq!(first, 2);
        assert_eq!(g.num_vertices(), 5);
        g.insert_edge(4, 0, 1.0, 1);
        assert!(g.has_edge(4, 0));
    }

    #[test]
    fn snapshot_matches_live_edges() {
        let mut g = DynamicGraph::new(4);
        g.insert_edge(0, 1, 2.0, 1);
        g.insert_edge(1, 2, 3.0, 2);
        g.insert_edge(2, 3, 4.0, 3);
        g.delete_edge(1, 2, 4);
        let s = g.snapshot();
        assert_eq!(s.num_edges(), 2);
        assert!(s.has_edge(0, 1));
        assert!(!s.has_edge(1, 2));
        assert_eq!(s.edge_weight(2, 3), Some(4.0));
    }

    #[test]
    fn from_csr_round_trip() {
        let csr = CsrGraph::from_weighted_edges(3, &[(0, 1, 5.0), (1, 2, 6.0)]);
        let dynamic = DynamicGraph::from_csr(&csr, 99);
        assert_eq!(dynamic.num_live_edges(), 2);
        assert_eq!(dynamic.edge(0, 1).unwrap().timestamp, 99);
        let back = dynamic.snapshot();
        assert_eq!(back.edge_weight(0, 1), Some(5.0));
        assert_eq!(back.edge_weight(1, 2), Some(6.0));
    }

    #[test]
    fn out_of_range_ids_never_panic() {
        let mut g = DynamicGraph::new(2);
        // Queries on unknown vertices are empty, not a crash.
        assert!(!g.has_edge(9, 0));
        assert!(g.edge(9, 0).is_none());
        assert_eq!(g.degree(9), 0);
        assert_eq!(g.neighbors(9).count(), 0);
        assert_eq!(g.neighbor_ids(9).count(), 0);
        // Deletes of unknown vertices are missing, not a crash.
        assert_eq!(g.delete_edge(9, 0, 1), ApplyResult::Missing);
        assert_eq!(g.delete_edge(0, 9, 1), ApplyResult::Missing);
        // Inserts grow the vertex space.
        assert_eq!(g.insert_edge(5, 1, 1.0, 2), ApplyResult::Inserted);
        assert_eq!(g.num_vertices(), 6);
        assert!(g.has_edge(5, 1));
        assert_eq!(g.insert_edge(0, 7, 1.0, 3), ApplyResult::Inserted);
        assert_eq!(g.num_vertices(), 8);
    }

    #[test]
    fn equality_sees_deletes_and_timestamps() {
        let build = |delete: bool| {
            let mut g = DynamicGraph::new(3);
            g.insert_edge(0, 1, 1.0, 1);
            g.insert_edge(1, 2, 2.0, 2);
            if delete {
                g.delete_edge(0, 1, 3);
            }
            g
        };
        assert_eq!(build(false), build(false));
        assert_ne!(build(false), build(true));
    }

    #[test]
    fn last_update_tracks_max() {
        let mut g = DynamicGraph::new(2);
        g.insert_edge(0, 1, 1.0, 7);
        g.delete_edge(0, 1, 3); // out-of-order timestamp doesn't regress
        assert_eq!(g.last_update(), 7);
    }
}
