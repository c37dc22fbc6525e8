//! The adjacency abstraction the batch kernels are generic over.
//!
//! [`CsrGraph`] hands out neighbor *slices*; [`CompressedCsr`] hands out
//! streaming varint *decoders*. [`Adjacency`] unifies them behind
//! generic associated iterator types so a kernel written once runs
//! zero-cost over either representation — plain slices monomorphize to
//! the same code as before, compressed rows decode inline without
//! materializing.
//!
//! The trait also carries the bandwidth-accounting hooks
//! ([`Adjacency::row_bytes`] / [`Adjacency::in_row_bytes`]): kernels
//! book the bytes a row scan *actually* streamed, so `OpCounters`
//! mem-bytes (and everything downstream — calibrate step 7, ga-obs
//! spans) reflect the compressed savings instead of pricing every entry
//! at 4 raw bytes.

use crate::compress::{CompressedCsr, RowDecoder, WeightedRowDecoder};
use crate::csr::CsrGraph;
use crate::{VertexId, Weight};

/// Read-only adjacency access, generic over row representation.
///
/// Contract (shared with `CsrGraph`): rows are sorted by target,
/// `weighted_neighbors` yields weight 1.0 on unweighted graphs, and the
/// in-neighbor methods panic unless [`Adjacency::has_reverse`].
pub trait Adjacency: Sync {
    /// Iterator over one row's sorted targets.
    type Neighbors<'a>: Iterator<Item = VertexId> + 'a
    where
        Self: 'a;
    /// Iterator over one row's `(target, weight)` pairs.
    type WeightedNeighbors<'a>: Iterator<Item = (VertexId, Weight)> + 'a
    where
        Self: 'a;

    /// Number of vertices.
    fn num_vertices(&self) -> usize;
    /// Number of directed edges stored.
    fn num_edges(&self) -> usize;
    /// Out-degree of `v`.
    fn degree(&self, v: VertexId) -> usize;
    /// Sorted out-neighbors of `v`.
    fn neighbors(&self, v: VertexId) -> Self::Neighbors<'_>;
    /// `(neighbor, weight)` pairs for `v` (1.0 when unweighted).
    fn weighted_neighbors(&self, v: VertexId) -> Self::WeightedNeighbors<'_>;
    /// Whether the graph carries edge weights.
    fn is_weighted(&self) -> bool;
    /// Whether an in-neighbor index is available.
    fn has_reverse(&self) -> bool;
    /// In-degree of `v` (panics without a reverse index).
    fn in_degree(&self, v: VertexId) -> usize;
    /// Sorted in-neighbors of `v` (panics without a reverse index).
    fn in_neighbors(&self, v: VertexId) -> Self::Neighbors<'_>;

    /// Bytes streamed by one scan of `v`'s out-row. Plain CSR: 4 bytes
    /// per target; compressed: the row's exact encoded length.
    #[inline]
    fn row_bytes(&self, v: VertexId) -> u64 {
        4 * self.degree(v) as u64
    }

    /// Bytes streamed by one scan of `v`'s in-row.
    #[inline]
    fn in_row_bytes(&self, v: VertexId) -> u64 {
        4 * self.in_degree(v) as u64
    }

    /// Heaviest edge weight: 1.0 on an unweighted graph with edges, 0.0
    /// without edges. The default decodes every row; representations
    /// that keep their weights in one flat array read that instead.
    fn max_weight(&self) -> Weight {
        let rows = 0..self.num_vertices() as VertexId;
        rows.flat_map(|u| self.weighted_neighbors(u))
            .fold(0.0, |max, (_, w)| max.max(w))
    }

    /// Total adjacency bytes held (forward + reverse rows).
    #[inline]
    fn adjacency_bytes(&self) -> u64 {
        let m = self.num_edges() as u64;
        4 * if self.has_reverse() { 2 * m } else { m }
    }
}

impl Adjacency for CsrGraph {
    type Neighbors<'a> = std::iter::Copied<std::slice::Iter<'a, VertexId>>;
    type WeightedNeighbors<'a> = CsrWeightedIter<'a>;

    #[inline]
    fn num_vertices(&self) -> usize {
        CsrGraph::num_vertices(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        CsrGraph::num_edges(self)
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        CsrGraph::degree(self, v)
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> Self::Neighbors<'_> {
        CsrGraph::neighbors(self, v).iter().copied()
    }

    #[inline]
    fn weighted_neighbors(&self, v: VertexId) -> Self::WeightedNeighbors<'_> {
        CsrWeightedIter {
            targets: CsrGraph::neighbors(self, v).iter(),
            weights: self.edge_weights(v),
            idx: 0,
        }
    }

    #[inline]
    fn is_weighted(&self) -> bool {
        CsrGraph::is_weighted(self)
    }

    #[inline]
    fn has_reverse(&self) -> bool {
        CsrGraph::has_reverse(self)
    }

    #[inline]
    fn in_degree(&self, v: VertexId) -> usize {
        CsrGraph::in_degree(self, v)
    }

    #[inline]
    fn in_neighbors(&self, v: VertexId) -> Self::Neighbors<'_> {
        CsrGraph::in_neighbors(self, v).iter().copied()
    }

    fn max_weight(&self) -> Weight {
        flat_max_weight(self.raw_weights(), self.num_edges())
    }
}

/// [`Adjacency::max_weight`] over one flat weight array (`None`: unit
/// weights on `m` edges).
fn flat_max_weight(weights: Option<&[Weight]>, m: usize) -> Weight {
    match weights {
        Some(w) => w.iter().fold(0.0, |max, &w| max.max(w)),
        None if m > 0 => 1.0,
        None => 0.0,
    }
}

/// `(target, weight)` iterator over a plain CSR row — a named type so it
/// can be an associated type on [`Adjacency`].
#[derive(Clone, Debug)]
pub struct CsrWeightedIter<'a> {
    targets: std::slice::Iter<'a, VertexId>,
    weights: Option<&'a [Weight]>,
    idx: usize,
}

impl Iterator for CsrWeightedIter<'_> {
    type Item = (VertexId, Weight);

    #[inline]
    fn next(&mut self) -> Option<(VertexId, Weight)> {
        let &t = self.targets.next()?;
        let w = self.weights.map_or(1.0, |w| w[self.idx]);
        self.idx += 1;
        Some((t, w))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.targets.size_hint()
    }
}

impl ExactSizeIterator for CsrWeightedIter<'_> {}

impl Adjacency for CompressedCsr {
    type Neighbors<'a> = RowDecoder<'a>;
    type WeightedNeighbors<'a> = WeightedRowDecoder<'a>;

    #[inline]
    fn num_vertices(&self) -> usize {
        CompressedCsr::num_vertices(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        CompressedCsr::num_edges(self)
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        CompressedCsr::degree(self, v)
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> Self::Neighbors<'_> {
        CompressedCsr::neighbors(self, v)
    }

    #[inline]
    fn weighted_neighbors(&self, v: VertexId) -> Self::WeightedNeighbors<'_> {
        CompressedCsr::weighted_neighbors(self, v)
    }

    #[inline]
    fn is_weighted(&self) -> bool {
        CompressedCsr::is_weighted(self)
    }

    #[inline]
    fn has_reverse(&self) -> bool {
        CompressedCsr::has_reverse(self)
    }

    #[inline]
    fn in_degree(&self, v: VertexId) -> usize {
        CompressedCsr::in_degree(self, v)
    }

    #[inline]
    fn in_neighbors(&self, v: VertexId) -> Self::Neighbors<'_> {
        CompressedCsr::in_neighbors(self, v)
    }

    #[inline]
    fn row_bytes(&self, v: VertexId) -> u64 {
        CompressedCsr::row_bytes(self, v)
    }

    #[inline]
    fn in_row_bytes(&self, v: VertexId) -> u64 {
        CompressedCsr::in_row_bytes(self, v)
    }

    #[inline]
    fn adjacency_bytes(&self) -> u64 {
        CompressedCsr::adjacency_bytes(self)
    }

    fn max_weight(&self) -> Weight {
        flat_max_weight(self.weights.as_deref(), self.num_edges())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sees_same_rows<G: Adjacency>(g: &G, plain: &CsrGraph) {
        assert_eq!(g.num_vertices(), plain.num_vertices());
        assert_eq!(g.num_edges(), plain.num_edges());
        for v in plain.vertices() {
            let row: Vec<VertexId> = g.neighbors(v).collect();
            assert_eq!(row, plain.neighbors(v));
            let wrow: Vec<(VertexId, Weight)> = g.weighted_neighbors(v).collect();
            assert_eq!(wrow.len(), g.degree(v));
        }
    }

    #[test]
    fn both_impls_agree_with_plain_rows() {
        let g = crate::csr::CsrBuilder::new(6)
            .weighted_edges([(0, 1, 2.0), (0, 5, 1.0), (1, 3, 4.0), (5, 0, 0.5)])
            .reverse(true)
            .build();
        sees_same_rows(&g, &g);
        let c = CompressedCsr::from_csr(&g);
        sees_same_rows(&c, &g);
        // Plain pricing is 4 bytes/entry; compressed rows are smaller.
        let plain_bytes: u64 = g.vertices().map(|v| Adjacency::row_bytes(&g, v)).sum();
        let comp_bytes: u64 = g.vertices().map(|v| Adjacency::row_bytes(&c, v)).sum();
        assert_eq!(plain_bytes, 4 * g.num_edges() as u64);
        assert!(comp_bytes < plain_bytes);
    }
}
