//! STINGER-inspired dynamic property graph.
//!
//! The paper's streaming path (Fig. 2, left side) needs a persistent
//! graph that absorbs "an incoming stream of individually small-scale
//! updates, such as additions or deletions to vertices or edges, or
//! modification of their properties". [`DynamicGraph`] provides that:
//!
//! * per-vertex adjacency rows kept **sorted by destination**, tombstones
//!   included, so a lookup is a binary search and a freeze copies each
//!   row in order without sorting it,
//! * **timestamps** on every edge (paper §II: "edges may have time-stamps
//!   in addition to properties"),
//! * **lazy deletion** — deleted slots are tombstoned and revived or
//!   reused in place by later inserts, with an explicit
//!   [`DynamicGraph::compact`] sweep,
//! * cheap [`DynamicGraph::snapshot`] freezes into a [`CsrGraph`] for the
//!   batch analytics on the right side of Fig. 2.

use crate::{CsrGraph, Edge, Timestamp, VertexId, Weight};

/// One live or tombstoned directed edge slot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeRecord {
    /// Target vertex.
    pub dst: VertexId,
    /// Edge weight (1.0 when unweighted updates are applied).
    pub weight: Weight,
    /// Time the edge was inserted or last modified.
    pub timestamp: Timestamp,
    /// Tombstone flag; set by `delete_edge`, cleared on slot reuse.
    pub deleted: bool,
}

/// A mutable directed multigraph-free graph with timestamps and lazy
/// deletion.
///
/// Every row is strictly sorted by `dst`, tombstones included: an
/// insert revives a tombstone of the same destination, else reuses a
/// tombstone just before or at the insertion point, else shifts the
/// tail. The slot layout is therefore a deterministic function of each
/// row's update sequence, which checkpoints, replicas and shard merges
/// rely on to stay slot-exact.
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
    tombstones: usize,
    last_update: Timestamp,
    /// Monotone structural-change counter; bumped by every mutation that
    /// can alter a row's snapshot content.
    version: u64,
    /// `row_version[u]` = [`Self::version`] value when row `u` last
    /// changed — the dirty-row index [`crate::snapshot::SnapshotCache`]
    /// consults to rebuild only what moved since the previous freeze.
    row_version: Vec<u64>,
}

/// Equality is over graph *content* (slots, tombstones, timestamps,
/// counters) — the version counters are snapshot-cache metadata and two
/// graphs that hold identical content compare equal regardless of the
/// mutation history that produced them (recovery relies on this).
impl PartialEq for DynamicGraph {
    fn eq(&self, other: &Self) -> bool {
        self.adj == other.adj
            && self.live_edges == other.live_edges
            && self.tombstones == other.tombstones
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
    /// A tombstoned or absent edge was deleted (no-op delete).
    Missing,
    /// An existing edge was tombstoned.
    Deleted,
}

impl DynamicGraph {
    /// Create a graph with `num_vertices` vertices and no edges.
    pub fn new(num_vertices: usize) -> Self {
        DynamicGraph {
            adj: vec![Vec::new(); num_vertices],
            live_edges: 0,
            tombstones: 0,
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

    /// Number of live (non-tombstoned) directed edges.
    #[inline]
    pub fn num_live_edges(&self) -> usize {
        self.live_edges
    }

    /// Number of tombstoned slots awaiting compaction.
    #[inline]
    pub fn num_tombstones(&self) -> usize {
        self.tombstones
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
            deleted: false,
        };
        let i = match row.binary_search_by_key(&v, |r| r.dst) {
            Ok(i) if !row[i].deleted => {
                row[i] = rec;
                return ApplyResult::Updated;
            }
            Ok(i) => i,
            // Only a tombstone beside the insertion point can take `v`
            // without unsorting the row.
            Err(i) if i > 0 && row[i - 1].deleted => i - 1,
            Err(i) if i < row.len() && row[i].deleted => i,
            Err(i) => {
                row.insert(i, rec);
                self.live_edges += 1;
                return ApplyResult::Inserted;
            }
        };
        row[i] = rec;
        self.live_edges += 1;
        self.tombstones -= 1;
        ApplyResult::Inserted
    }

    /// Tombstone the directed edge `u -> v` if live. Out-of-range
    /// endpoints are a no-op ([`ApplyResult::Missing`]), not a panic.
    pub fn delete_edge(&mut self, u: VertexId, v: VertexId, ts: Timestamp) -> ApplyResult {
        self.last_update = self.last_update.max(ts);
        if u as usize >= self.adj.len() {
            return ApplyResult::Missing;
        }
        let row = &mut self.adj[u as usize];
        let Some(rec) = Self::find(row, v).map(|i| &mut row[i]) else {
            return ApplyResult::Missing;
        };
        rec.deleted = true;
        rec.timestamp = ts;
        self.live_edges -= 1;
        self.tombstones += 1;
        self.touch_row(u);
        ApplyResult::Deleted
    }

    /// Remove a vertex by tombstoning every incident edge (both
    /// directions). The id remains allocated; degree drops to zero.
    pub fn delete_vertex(&mut self, v: VertexId, ts: Timestamp) -> usize {
        let mut removed = 0;
        let out: Vec<VertexId> = self.neighbors(v).map(|r| r.dst).collect();
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
        let row = self.row(u);
        Self::find(row, v).map(|i| &row[i])
    }

    /// Slot of the live record for `v` in a sorted `row`, if any.
    fn find(row: &[EdgeRecord], v: VertexId) -> Option<usize> {
        row.binary_search_by_key(&v, |r| r.dst)
            .ok()
            .filter(|&i| !row[i].deleted)
    }

    /// Live out-degree of `v` (0 for out-of-range ids).
    pub fn degree(&self, v: VertexId) -> usize {
        self.row(v).iter().filter(|r| !r.deleted).count()
    }

    /// Iterate live out-edge records of `v` (empty for out-of-range ids).
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = &EdgeRecord> {
        self.row(v).iter().filter(|r| !r.deleted)
    }

    /// Adjacency row of `v`, empty when `v` is out of range.
    #[inline]
    fn row(&self, v: VertexId) -> &[EdgeRecord] {
        self.adj.get(v as usize).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterate live out-neighbor ids of `v`.
    pub fn neighbor_ids(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.neighbors(v).map(|r| r.dst)
    }

    /// Iterate all live edges as `(src, dst, weight, timestamp)`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId, Weight, Timestamp)> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, row)| {
            row.iter()
                .filter(|r| !r.deleted)
                .map(move |r| (u as VertexId, r.dst, r.weight, r.timestamp))
        })
    }

    /// Physically remove tombstones. Returns slots reclaimed.
    pub fn compact(&mut self) -> usize {
        let mut reclaimed = 0;
        for u in 0..self.adj.len() {
            let row = &mut self.adj[u];
            let before = row.len();
            row.retain(|r| !r.deleted);
            let removed = before - row.len();
            if removed > 0 {
                reclaimed += removed;
                self.touch_row(u as VertexId);
            }
        }
        self.tombstones = 0;
        reclaimed
    }

    /// Freeze the live edges into an immutable weighted [`CsrGraph`]
    /// snapshot — the hand-off from the streaming side of Fig. 2 to the
    /// batch side.
    ///
    /// Runs the row-wise freeze ([`crate::snapshot::freeze`]): offsets
    /// come from a counting pass over per-row live counts and each
    /// already-sorted row is copied without its tombstones (in parallel
    /// for large graphs), so no `(u, v, w)` tuple vector is materialized
    /// and no sort runs. Output is bit-identical to feeding
    /// [`Self::edges`] through `CsrBuilder`, which the tests keep as
    /// the oracle.
    pub fn snapshot(&self) -> CsrGraph {
        crate::snapshot::freeze(self, crate::par::Parallelism::Auto)
    }

    /// Apply the edge list of `g` as undirected inserts (helper for tests
    /// and generators).
    pub fn insert_undirected(&mut self, edges: &[Edge], ts: Timestamp) {
        for &(u, v) in edges {
            self.insert_edge(u, v, 1.0, ts);
            self.insert_edge(v, u, 1.0, ts);
        }
    }

    /// Raw adjacency rows *including tombstones*, sorted by `dst` — the
    /// checkpoint codec serializes these verbatim so a recovered graph is
    /// bit-identical (same slot layout, same tombstones) to the original.
    pub(crate) fn raw_rows(&self) -> &[Vec<EdgeRecord>] {
        &self.adj
    }

    /// The raw slot row of vertex `v` *including tombstones*, sorted by
    /// `dst`. Sharded routers use this to lift owned rows out of a shard
    /// verbatim, so a merged graph can be compared slot-for-slot against
    /// an unsharded run. Empty for out-of-range ids (a shard that never
    /// saw an edge near `v` simply has no row for it).
    pub fn row_slots(&self, v: VertexId) -> &[EdgeRecord] {
        self.row(v)
    }

    /// Assemble a graph from raw slot rows (tombstones included), each
    /// strictly sorted by `dst`; live/tombstone counts are recomputed,
    /// versions reset to zero. Inverse of reading every row via
    /// [`Self::row_slots`].
    pub fn from_rows(adj: Vec<Vec<EdgeRecord>>, last_update: Timestamp) -> Self {
        debug_assert!(
            adj.iter()
                .all(|row| row.windows(2).all(|p| p[0].dst < p[1].dst)),
            "rows must be strictly sorted by dst"
        );
        let mut live_edges = 0;
        let mut tombstones = 0;
        for row in &adj {
            for rec in row {
                if rec.deleted {
                    tombstones += 1;
                } else {
                    live_edges += 1;
                }
            }
        }
        let rows = adj.len();
        DynamicGraph {
            adj,
            live_edges,
            tombstones,
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
        assert_eq!(g.num_tombstones(), 1);
    }

    /// Row `v` as `(dst, deleted)` pairs, in slot order.
    fn slots(g: &DynamicGraph, v: VertexId) -> Vec<(VertexId, bool)> {
        g.row_slots(v).iter().map(|r| (r.dst, r.deleted)).collect()
    }

    #[test]
    fn tombstone_reuse() {
        let mut g = DynamicGraph::new(64);
        g.insert_edge(0, 1, 1.0, 1);
        g.delete_edge(0, 1, 2);
        // Re-inserting the same edge revives the slot in place.
        assert_eq!(g.insert_edge(0, 1, 5.0, 3), ApplyResult::Inserted);
        assert_eq!(g.num_tombstones(), 0);
        assert_eq!(g.num_live_edges(), 1);
        assert_eq!(g.edge(0, 1).unwrap().weight, 5.0);
        // A different target reuses the tombstone beside its insertion
        // point: here the slot just before it.
        g.delete_edge(0, 1, 4);
        g.insert_edge(0, 10, 1.0, 5);
        assert_eq!(slots(&g, 0), [(10, false)]);
        for v in [20, 30, 40] {
            g.insert_edge(0, v, 1.0, 6);
        }
        g.delete_edge(0, 20, 7);
        g.insert_edge(0, 25, 1.0, 8);
        assert_eq!(
            slots(&g, 0),
            [(10, false), (25, false), (30, false), (40, false)]
        );
        // ... or the slot just at it.
        g.delete_edge(0, 40, 9);
        g.insert_edge(0, 35, 1.0, 10);
        g.delete_edge(0, 10, 11);
        g.insert_edge(0, 0, 1.0, 12);
        assert_eq!(
            slots(&g, 0),
            [(0, false), (25, false), (30, false), (35, false)]
        );
        // A tombstone anywhere else stays, and the tail shifts instead.
        g.delete_edge(0, 25, 13);
        g.insert_edge(0, 50, 1.0, 14);
        g.insert_edge(0, 33, 1.0, 15);
        assert_eq!(
            slots(&g, 0),
            [
                (0, false),
                (25, true),
                (30, false),
                (33, false),
                (35, false),
                (50, false)
            ]
        );
        assert_eq!((g.num_live_edges(), g.num_tombstones()), (5, 1));
    }

    #[test]
    fn degree_ignores_tombstones() {
        let mut g = DynamicGraph::new(4);
        g.insert_edge(0, 1, 1.0, 1);
        g.insert_edge(0, 2, 1.0, 1);
        g.insert_edge(0, 3, 1.0, 1);
        g.delete_edge(0, 2, 2);
        assert_eq!(g.degree(0), 2);
        let ids: Vec<_> = g.neighbor_ids(0).collect();
        assert_eq!(ids, vec![1, 3]);
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
    fn compact_reclaims() {
        let mut g = DynamicGraph::new(2);
        for i in 0..10 {
            g.insert_edge(0, 1, i as f32, i);
            g.delete_edge(0, 1, i);
        }
        assert_eq!(g.num_tombstones(), 1);
        assert_eq!(g.compact(), 1);
        assert_eq!(g.num_tombstones(), 0);
        assert_eq!(g.degree(0), 0);
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
    fn equality_sees_tombstones_and_timestamps() {
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
