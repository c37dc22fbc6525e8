//! Dual-representation vertex frontiers for the traversal kernels.
//!
//! BFS's direction-optimizing trick hinges on keeping the frontier in
//! *two* forms at once: a sparse insertion-ordered list (cheap to
//! iterate when the frontier is small) and a dense bitmap (O(1)
//! membership, cheap to scan when the frontier covers much of the
//! graph). [`Frontier`] packages that pair — with duplicate-free
//! insertion and density probes for representation switching — and is
//! shared by BFS and the delta-stepping SSSP bucket scans.

use crate::adjacency::Adjacency;
use crate::VertexId;

/// A set of vertices held as a bitmap plus a sparse list.
///
/// `insert` is duplicate-free (the bitmap is the authority), so kernels
/// that may discover a vertex through several edges — SSSP bucket
/// relaxations — get dedup for free instead of scanning a vertex once
/// per discovery.
#[derive(Clone, Debug)]
pub struct Frontier {
    bits: Vec<u64>,
    sparse: Vec<VertexId>,
    num_vertices: usize,
}

impl Frontier {
    /// An empty frontier over `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        Frontier {
            bits: vec![0u64; num_vertices.div_ceil(64)],
            sparse: Vec::new(),
            num_vertices,
        }
    }

    /// Insert `v`; returns true if it was not already a member.
    #[inline]
    pub fn insert(&mut self, v: VertexId) -> bool {
        let (word, bit) = (v as usize / 64, v as usize % 64);
        let mask = 1u64 << bit;
        if self.bits[word] & mask != 0 {
            return false;
        }
        self.bits[word] |= mask;
        self.sparse.push(v);
        true
    }

    /// O(1) membership test.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.bits[v as usize / 64] & (1u64 << (v as usize % 64)) != 0
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.sparse.len()
    }

    /// True when no vertex is a member.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sparse.is_empty()
    }

    /// Vertex-count capacity (the `n` this frontier was built over).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Members in insertion order (the sparse representation).
    #[inline]
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, VertexId>> {
        self.sparse.iter().copied()
    }

    /// Fraction of all vertices in the frontier, for density-based
    /// representation switching (GAP's top-down/bottom-up test uses
    /// frontier *edges*; see [`Frontier::edge_sum`] for that).
    #[inline]
    pub fn density(&self) -> f64 {
        if self.num_vertices == 0 {
            0.0
        } else {
            self.sparse.len() as f64 / self.num_vertices as f64
        }
    }

    /// True when the frontier is dense enough that bitmap scans beat
    /// sparse iteration (more than 1/16 of all vertices present).
    #[inline]
    pub fn is_dense(&self) -> bool {
        self.sparse.len() * 16 > self.num_vertices
    }

    /// Total out-degree of the members — the work a top-down expansion
    /// of this frontier would do, and the quantity GAP's
    /// direction-switching heuristic compares against `m / alpha`.
    pub fn edge_sum<G: Adjacency>(&self, g: &G) -> u64 {
        self.sparse.iter().map(|&v| g.degree(v) as u64).sum()
    }

    /// Remove all members. O(len): clears only the words the members
    /// touch, so sparse frontiers over huge graphs stay cheap.
    pub fn clear(&mut self) {
        if self.sparse.len() * 64 >= self.bits.len() {
            self.bits.fill(0);
        } else {
            for &v in &self.sparse {
                self.bits[v as usize / 64] = 0;
            }
        }
        self.sparse.clear();
    }
}

impl<'a> IntoIterator for &'a Frontier {
    type Item = VertexId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, VertexId>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_dedups_and_tracks_order() {
        let mut f = Frontier::new(100);
        assert!(f.insert(7));
        assert!(f.insert(3));
        assert!(!f.insert(7));
        assert!(f.insert(64));
        assert_eq!(f.len(), 3);
        assert_eq!(f.iter().collect::<Vec<_>>(), vec![7, 3, 64]);
        assert!(f.contains(64));
        assert!(!f.contains(63));
    }

    #[test]
    fn clear_resets_both_representations() {
        let mut f = Frontier::new(200);
        for v in [0, 65, 199] {
            f.insert(v);
        }
        f.clear();
        assert!(f.is_empty());
        assert!(!f.contains(65));
        assert_eq!(f.iter().count(), 0);
        assert!(f.insert(65));
    }

    #[test]
    fn density_switching_threshold() {
        let mut f = Frontier::new(160);
        for v in 0..10 {
            f.insert(v);
        }
        assert!(!f.is_dense());
        for v in 10..20 {
            f.insert(v);
        }
        assert!(f.is_dense());
    }

    #[test]
    fn empty_frontier_over_empty_graph() {
        let f = Frontier::new(0);
        assert!(f.is_empty());
        assert_eq!(f.density(), 0.0);
        assert_eq!(f.iter().count(), 0);
    }
}
