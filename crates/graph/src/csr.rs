//! Immutable compressed-sparse-row graphs.
//!
//! `CsrGraph` is the snapshot format every batch kernel in the workspace
//! runs against: two flat arrays (`offsets`, `targets`) giving each
//! vertex an O(1) neighbor slice, plus optional parallel `weights` and an
//! optional reverse index for in-neighbors. This mirrors the layout the
//! paper's Fig. 4 architecture hardwires (CSR/CSC) and is the natural
//! "small but faster-access memory" target of the Fig. 2 subgraph-copy
//! step.

use crate::{Edge, VertexId, Weight, WeightedEdge};
use rayon::prelude::*;

/// Immutable directed graph in compressed-sparse-row form.
///
/// Construction sorts and (optionally) deduplicates edges; neighbor
/// slices are therefore sorted, which the intersection-based kernels
/// (triangles, Jaccard) rely on.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CsrGraph {
    offsets: Vec<u64>,
    targets: Vec<VertexId>,
    weights: Option<Vec<Weight>>,
    /// In-edge index, from [`CsrBuilder::reverse`] or [`CsrGraph::with_reverse`].
    rev: Option<Box<ReverseIndex>>,
}

#[derive(Clone, Debug, Default, PartialEq)]
struct ReverseIndex {
    offsets: Vec<u64>,
    sources: Vec<VertexId>,
}

impl CsrGraph {
    /// Build an unweighted graph from a directed edge list, deduplicating
    /// parallel edges and dropping self-loops. The common case for the
    /// unweighted kernels.
    pub fn from_edges(num_vertices: usize, edges: &[Edge]) -> Self {
        CsrBuilder::new(num_vertices)
            .edges(edges.iter().copied())
            .dedup(true)
            .drop_self_loops(true)
            .build()
    }

    /// Build a weighted graph from a directed edge list. Parallel edges
    /// are kept (their weights may differ).
    pub fn from_weighted_edges(num_vertices: usize, edges: &[WeightedEdge]) -> Self {
        CsrBuilder::new(num_vertices)
            .weighted_edges(edges.iter().copied())
            .drop_self_loops(true)
            .build()
    }

    /// Build an undirected graph: each input edge is inserted in both
    /// directions, then deduplicated.
    pub fn from_edges_undirected(num_vertices: usize, edges: &[Edge]) -> Self {
        CsrBuilder::new(num_vertices)
            .edges(edges.iter().copied())
            .symmetrize(true)
            .dedup(true)
            .drop_self_loops(true)
            .build()
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges stored.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// Sorted out-neighbor slice of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Weights parallel to [`Self::neighbors`], if the graph is weighted.
    #[inline]
    pub fn edge_weights(&self, v: VertexId) -> Option<&[Weight]> {
        let w = self.weights.as_ref()?;
        let v = v as usize;
        Some(&w[self.offsets[v] as usize..self.offsets[v + 1] as usize])
    }

    /// `(neighbor, weight)` pairs for `v`; weight defaults to 1.0 on
    /// unweighted graphs so weighted kernels degrade gracefully.
    pub fn weighted_neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let nbrs = self.neighbors(v);
        let ws = self.edge_weights(v);
        nbrs.iter().enumerate().map(move |(i, &u)| {
            let w = ws.map_or(1.0, |w| w[i]);
            (u, w)
        })
    }

    /// Whether the graph carries edge weights.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Whether a reverse (in-edge) index was built.
    #[inline]
    pub fn has_reverse(&self) -> bool {
        self.rev.is_some()
    }

    /// In-degree of `v`. Requires the reverse index.
    ///
    /// # Panics
    /// Panics if the graph was built without [`CsrBuilder::reverse`].
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        let r = self.rev.as_ref().expect("reverse index not built");
        let v = v as usize;
        (r.offsets[v + 1] - r.offsets[v]) as usize
    }

    /// Sorted in-neighbor slice of `v`. Requires the reverse index.
    ///
    /// # Panics
    /// Panics if the graph was built without [`CsrBuilder::reverse`].
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        let r = self.rev.as_ref().expect("reverse index not built");
        let v = v as usize;
        &r.sources[r.offsets[v] as usize..r.offsets[v + 1] as usize]
    }

    /// True if the directed edge `u -> v` exists (binary search).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Weight of edge `u -> v`, if present (first match on multigraphs).
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        let idx = self.neighbors(u).binary_search(&v).ok()?;
        Some(self.edge_weights(u).map_or(1.0, |w| w[idx]))
    }

    /// Iterate over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + Clone {
        0..self.num_vertices() as VertexId
    }

    /// Iterate over all directed edges as `(src, dst)`.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.vertices()
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Iterate over all directed edges as `(src, dst, weight)`.
    pub fn weighted_edges(&self) -> impl Iterator<Item = WeightedEdge> + '_ {
        self.vertices()
            .flat_map(move |u| self.weighted_neighbors(u).map(move |(v, w)| (u, v, w)))
    }

    /// The graph with every edge reversed (weights carried along).
    ///
    /// One O(V+E) counting-sort pass over the existing arrays — the same
    /// trick the reverse-index build uses — instead of round-tripping
    /// every edge through a fresh [`CsrBuilder`] global sort. Because
    /// `targets` is sorted by `(src, dst)`, emitting edges in storage
    /// order through per-destination cursors yields rows that are
    /// already sorted by new destination.
    pub fn transpose(&self) -> CsrGraph {
        let n = self.num_vertices();
        let mut offsets = vec![0u64; n + 1];
        for &v in &self.targets {
            offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0 as VertexId; self.targets.len()];
        let mut weights = self.weights.as_ref().map(|w| vec![0.0 as Weight; w.len()]);
        for u in 0..n {
            let (s, e) = (self.offsets[u] as usize, self.offsets[u + 1] as usize);
            for i in s..e {
                let v = self.targets[i] as usize;
                let c = cursor[v] as usize;
                targets[c] = u as VertexId;
                if let (Some(out), Some(src)) = (weights.as_mut(), self.weights.as_ref()) {
                    out[c] = src[i];
                }
                cursor[v] += 1;
            }
        }
        CsrGraph {
            offsets,
            targets,
            weights,
            rev: None,
        }
    }

    /// This graph with an in-neighbor index attached: the rows
    /// [`CsrBuilder::reverse`] builds, from the one counting pass of
    /// [`Self::transpose`] instead of a re-sort of every edge.
    pub fn with_reverse(&self) -> CsrGraph {
        let mut g = CsrGraph::from_parts(self.offsets.clone(), self.targets.clone(), None);
        let t = g.transpose();
        g.attach_reverse(t.offsets, t.targets);
        g.weights = self.weights.clone();
        g
    }

    /// Raw offsets array (`num_vertices + 1` entries): row `v` is
    /// `raw_targets()[offsets[v]..offsets[v + 1]]`. A `ga-linalg`
    /// matrix is an unweighted graph plus a value array indexed the same
    /// way.
    #[inline]
    pub fn raw_offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Raw targets array. Exposed for the linear-algebra crate.
    #[inline]
    pub fn raw_targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// Raw weights array parallel to [`Self::raw_targets`], if weighted.
    /// Exposed for the snapshot pipeline's bit-identity checks.
    #[inline]
    pub fn raw_weights(&self) -> Option<&[Weight]> {
        self.weights.as_deref()
    }

    /// Assemble an unweighted graph from CSR arrays whose rows are
    /// already sorted — the constructor for code that emits rows in
    /// order itself (the sparse-matrix products of `ga-linalg`, the
    /// ball copy of [`crate::sub::extract_ball`]).
    ///
    /// # Panics
    /// Panics unless `offsets` is non-empty, starts at 0, never
    /// decreases and ends at `targets.len()`, and every row is strictly
    /// increasing with targets below `offsets.len() - 1`.
    pub fn from_sorted_rows(offsets: Vec<u64>, targets: Vec<VertexId>) -> CsrGraph {
        let n = offsets.len().checked_sub(1).expect("offsets is empty");
        assert_eq!(offsets[0], 0, "offsets must start at 0");
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "offsets decrease");
        assert_eq!(offsets[n], targets.len() as u64, "offsets miss targets");
        for v in 0..n {
            let row = &targets[offsets[v] as usize..offsets[v + 1] as usize];
            let ok = row.windows(2).all(|p| p[0] < p[1]) && row.iter().all(|&t| (t as usize) < n);
            assert!(ok, "row {v} is unsorted or out of range");
        }
        CsrGraph::from_parts(offsets, targets, None)
    }

    /// Assemble a graph directly from CSR arrays (no sort, no checks
    /// beyond shape) — the row-wise snapshot freeze produces these
    /// arrays itself. Callers must pass offsets of length
    /// `num_vertices + 1` with `offsets[n] == targets.len()` and rows
    /// sorted by target.
    pub(crate) fn from_parts(
        offsets: Vec<u64>,
        targets: Vec<VertexId>,
        weights: Option<Vec<Weight>>,
    ) -> CsrGraph {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().unwrap() as usize, targets.len());
        CsrGraph {
            offsets,
            targets,
            weights,
            rev: None,
        }
    }

    /// Disassemble into raw arrays — lets the snapshot cache recycle
    /// allocations from a retired snapshot.
    pub(crate) fn into_parts(self) -> (Vec<u64>, Vec<VertexId>, Option<Vec<Weight>>) {
        (self.offsets, self.targets, self.weights)
    }

    /// Attach a pre-built reverse index (offsets + sources in the same
    /// shape `CsrBuilder::reverse` produces). Used by the compressed
    /// adjacency round-trip, which decodes both directions itself.
    pub(crate) fn attach_reverse(&mut self, offsets: Vec<u64>, sources: Vec<VertexId>) {
        debug_assert_eq!(offsets.len(), self.offsets.len());
        debug_assert_eq!(*offsets.last().unwrap() as usize, sources.len());
        self.rev = Some(Box::new(ReverseIndex { offsets, sources }));
    }
}

/// Configurable CSR construction.
///
/// ```
/// use ga_graph::CsrBuilder;
/// let g = CsrBuilder::new(4)
///     .edges([(0, 1), (1, 2), (2, 3), (0, 1)])
///     .dedup(true)
///     .reverse(true)
///     .build();
/// assert_eq!(g.num_edges(), 3);
/// assert_eq!(g.in_neighbors(1), &[0]);
/// ```
#[derive(Clone, Debug)]
pub struct CsrBuilder {
    num_vertices: usize,
    edges: Vec<(VertexId, VertexId)>,
    weights: Option<Vec<Weight>>,
    dedup: bool,
    symmetrize: bool,
    drop_self_loops: bool,
    reverse: bool,
}

impl CsrBuilder {
    /// Start a builder for a graph with `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        CsrBuilder {
            num_vertices,
            edges: Vec::new(),
            weights: None,
            dedup: false,
            symmetrize: false,
            drop_self_loops: false,
            reverse: false,
        }
    }

    /// Add unweighted edges. Mixing with weighted edges assigns weight 1.
    pub fn edges(mut self, it: impl IntoIterator<Item = Edge>) -> Self {
        for (u, v) in it {
            self.push(u, v, 1.0, false);
        }
        self
    }

    /// Add weighted edges; marks the resulting graph as weighted.
    pub fn weighted_edges(mut self, it: impl IntoIterator<Item = WeightedEdge>) -> Self {
        for (u, v, w) in it {
            self.push(u, v, w, true);
        }
        self
    }

    fn push(&mut self, u: VertexId, v: VertexId, w: Weight, weighted: bool) {
        assert!(
            (u as usize) < self.num_vertices && (v as usize) < self.num_vertices,
            "edge ({u},{v}) out of range for {} vertices",
            self.num_vertices
        );
        if weighted && self.weights.is_none() {
            // Backfill weight-1 for edges added before the first weighted one.
            self.weights = Some(vec![1.0; self.edges.len()]);
        }
        self.edges.push((u, v));
        if let Some(ws) = &mut self.weights {
            ws.push(w);
        }
    }

    /// Remove duplicate `(src, dst)` pairs (first weight wins).
    pub fn dedup(mut self, yes: bool) -> Self {
        self.dedup = yes;
        self
    }

    /// Insert the reverse of every edge before building (undirected view).
    pub fn symmetrize(mut self, yes: bool) -> Self {
        self.symmetrize = yes;
        self
    }

    /// Drop `v -> v` edges.
    pub fn drop_self_loops(mut self, yes: bool) -> Self {
        self.drop_self_loops = yes;
        self
    }

    /// Also build the in-neighbor index.
    pub fn reverse(mut self, yes: bool) -> Self {
        self.reverse = yes;
        self
    }

    /// Finalize into a [`CsrGraph`]. Sorting is parallel for large edge
    /// lists.
    pub fn build(self) -> CsrGraph {
        let CsrBuilder {
            num_vertices,
            mut edges,
            weights,
            dedup,
            symmetrize,
            drop_self_loops,
            reverse,
        } = self;

        let mut weights = weights;
        if symmetrize {
            let n = edges.len();
            edges.reserve(n);
            for i in 0..n {
                let (u, v) = edges[i];
                edges.push((v, u));
            }
            if let Some(ws) = &mut weights {
                for i in 0..n {
                    let w = ws[i];
                    ws.push(w);
                }
            }
        }

        // Pair edges with weights so one sort handles both.
        let mut rows: Vec<(VertexId, VertexId, Weight)> = match &weights {
            Some(ws) => edges
                .iter()
                .zip(ws.iter())
                .map(|(&(u, v), &w)| (u, v, w))
                .collect(),
            None => edges.iter().map(|&(u, v)| (u, v, 1.0)).collect(),
        };
        if drop_self_loops {
            rows.retain(|&(u, v, _)| u != v);
        }
        if rows.len() > 1 << 14 {
            rows.par_sort_unstable_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
        } else {
            rows.sort_unstable_by_key(|a| (a.0, a.1));
        }
        if dedup {
            rows.dedup_by_key(|&mut (u, v, _)| (u, v));
        }

        let mut offsets = vec![0u64; num_vertices + 1];
        for &(u, _, _) in &rows {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..num_vertices {
            offsets[i + 1] += offsets[i];
        }
        let targets: Vec<VertexId> = rows.iter().map(|&(_, v, _)| v).collect();
        let out_weights = weights
            .is_some()
            .then(|| rows.iter().map(|&(_, _, w)| w).collect());

        let rev = reverse.then(|| {
            let mut roff = vec![0u64; num_vertices + 1];
            for &(_, v, _) in &rows {
                roff[v as usize + 1] += 1;
            }
            for i in 0..num_vertices {
                roff[i + 1] += roff[i];
            }
            let mut cursor = roff.clone();
            let mut sources = vec![0 as VertexId; rows.len()];
            for &(u, v, _) in &rows {
                let c = &mut cursor[v as usize];
                sources[*c as usize] = u;
                *c += 1;
            }
            // `rows` is sorted by (src, dst), so the counting pass above
            // emits each vertex's in-neighbors in source order already.
            Box::new(ReverseIndex {
                offsets: roff,
                sources,
            })
        });

        CsrGraph {
            offsets,
            targets,
            weights: out_weights,
            rev,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn basic_shape() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(3), &[] as &[VertexId]);
        assert_eq!(g.degree(0), 2);
        assert!(g.has_edge(1, 3));
        assert!(!g.has_edge(3, 1));
    }

    #[test]
    fn dedup_and_self_loops() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (0, 1), (1, 1), (1, 2)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(1), &[2]);
    }

    #[test]
    fn neighbors_sorted() {
        let g = CsrGraph::from_edges(5, &[(0, 4), (0, 1), (0, 3), (0, 2)]);
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
    }

    #[test]
    fn undirected_symmetrizes() {
        let g = CsrGraph::from_edges_undirected(3, &[(0, 1), (1, 2)]);
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(2, 1));
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn weighted_graph() {
        let g = CsrGraph::from_weighted_edges(3, &[(0, 1, 2.5), (1, 2, 0.5)]);
        assert!(g.is_weighted());
        assert_eq!(g.edge_weight(0, 1), Some(2.5));
        assert_eq!(g.edge_weight(1, 2), Some(0.5));
        assert_eq!(g.edge_weight(2, 0), None);
        let collected: Vec<_> = g.weighted_neighbors(0).collect();
        assert_eq!(collected, vec![(1, 2.5)]);
    }

    #[test]
    fn unweighted_defaults_weight_one() {
        let g = diamond();
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
        let total: f32 = g.weighted_edges().map(|(_, _, w)| w).sum();
        assert_eq!(total, 4.0);
    }

    #[test]
    fn reverse_index() {
        let g = CsrBuilder::new(4)
            .edges([(0, 3), (1, 3), (2, 3), (3, 0)])
            .reverse(true)
            .build();
        assert_eq!(g.in_neighbors(3), &[0, 1, 2]);
        assert_eq!(g.in_degree(3), 3);
        assert_eq!(g.in_neighbors(0), &[3]);
        assert_eq!(g.in_degree(1), 0);
    }

    #[test]
    fn transpose_round_trip() {
        let g = diamond();
        let t = g.transpose();
        assert_eq!(t.neighbors(3), &[1, 2]);
        assert_eq!(t.neighbors(1), &[0]);
        let tt = t.transpose();
        for v in g.vertices() {
            assert_eq!(g.neighbors(v), tt.neighbors(v));
        }
    }

    #[test]
    fn transpose_keeps_weights() {
        let g = CsrGraph::from_weighted_edges(3, &[(0, 1, 7.0), (1, 2, 9.0)]);
        let t = g.transpose();
        assert_eq!(t.edge_weight(1, 0), Some(7.0));
        assert_eq!(t.edge_weight(2, 1), Some(9.0));
    }

    /// `with_reverse` equals the builder's reverse index, in-row by
    /// in-row, and keeps the forward rows and weights as they were.
    #[test]
    fn with_reverse_matches_builder_reverse() {
        for seed in 0..3 {
            let edges = crate::gen::rmat(8, 3000, crate::gen::RmatParams::GRAPH500, seed);
            let weighted = edges
                .iter()
                .enumerate()
                .map(|(i, &(u, v))| (u, v, i as Weight));
            for b in [
                CsrBuilder::new(256).edges(edges.iter().copied()),
                CsrBuilder::new(256)
                    .edges(edges.iter().copied())
                    .dedup(true),
                CsrBuilder::new(256).weighted_edges(weighted),
            ] {
                let want = b.clone().reverse(true).build();
                let got = b.build().with_reverse();
                assert_eq!(got, want, "seed {seed}");
                for v in want.vertices() {
                    assert_eq!(got.in_neighbors(v), want.in_neighbors(v));
                }
            }
        }
    }

    #[test]
    fn from_sorted_rows_matches_builder() {
        let g = diamond();
        let h = CsrGraph::from_sorted_rows(g.raw_offsets().to_vec(), g.raw_targets().to_vec());
        assert_eq!(
            (h.raw_offsets(), h.raw_targets()),
            (g.raw_offsets(), g.raw_targets())
        );
        assert!(!h.is_weighted() && !h.has_reverse());
    }

    #[test]
    #[should_panic(expected = "row 0 is unsorted or out of range")]
    fn from_sorted_rows_rejects_repeated_target() {
        CsrGraph::from_sorted_rows(vec![0, 2, 2], vec![1, 1]);
    }

    #[test]
    #[should_panic(expected = "row 0 is unsorted or out of range")]
    fn from_sorted_rows_rejects_target_out_of_range() {
        CsrGraph::from_sorted_rows(vec![0, 1, 1], vec![2]);
    }

    #[test]
    #[should_panic(expected = "offsets decrease")]
    fn from_sorted_rows_rejects_decreasing_offsets() {
        CsrGraph::from_sorted_rows(vec![0, 2, 1, 2], vec![0, 1]);
    }

    #[test]
    fn edges_iterator_matches_counts() {
        let g = diamond();
        let e: Vec<_> = g.edges().collect();
        assert_eq!(e.len(), g.num_edges());
        assert!(e.contains(&(0, 2)));
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, &[]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn isolated_vertices() {
        let g = CsrGraph::from_edges(10, &[(0, 9)]);
        for v in 1..9 {
            assert_eq!(g.degree(v), 0);
        }
        assert_eq!(g.neighbors(0), &[9]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let _ = CsrBuilder::new(2).edges([(0, 5)]).build();
    }

    #[test]
    fn mixed_weighted_backfill() {
        let g = CsrBuilder::new(3)
            .edges([(0, 1)])
            .weighted_edges([(1, 2, 3.0)])
            .build();
        assert!(g.is_weighted());
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
        assert_eq!(g.edge_weight(1, 2), Some(3.0));
    }
}
