//! Parallel CSR iteration helpers.
//!
//! The batch kernels share two data-parallel access patterns over an
//! [`Adjacency`]: expand a frontier by claiming undiscovered neighbors,
//! and sum the frontier's degrees. Centralizing them here keeps each
//! kernel's parallel variant small and makes the work-partitioning
//! strategy uniform across kernels.

use crate::adjacency::Adjacency;
use crate::VertexId;
use rayon::prelude::*;

/// How a parallelizable operation (kernel invocation, snapshot freeze)
/// should execute.
///
/// Defined here, in the storage crate, so both the batch kernels
/// (`ga-kernels` re-exports it) and the snapshot pipeline share one
/// knob.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// Always the sequential engine.
    Serial,
    /// Always the rayon-parallel engine.
    Parallel,
    /// Parallel when the thread pool has more than one thread and the
    /// input is large enough to repay waking its workers (the default).
    #[default]
    Auto,
}

/// Inputs smaller than this stay serial under [`Parallelism::Auto`]: a
/// parallel phase wakes parked workers (5–50 µs). Measured break-evens
/// (EXPERIMENTS E20): freeze ≈10 k edges, compressed build ≈30 k.
pub const AUTO_WORK_CUTOFF: usize = 32_768;

impl Parallelism {
    /// Decide whether an operation facing roughly `work` units (edges)
    /// of work should take its parallel path.
    pub fn use_parallel(self, work: usize) -> bool {
        match self {
            Parallelism::Serial => false,
            Parallelism::Parallel => true,
            Parallelism::Auto => rayon::current_num_threads() > 1 && work >= AUTO_WORK_CUTOFF,
        }
    }
}

/// Expand `frontier` one level in parallel: for each frontier vertex `u`
/// and each out-neighbor `v`, `claim(u, v)` decides (atomically, on the
/// caller's state) whether this thread discovered `v`; claimed vertices
/// form the next frontier. Discovery order within the frontier is
/// preserved, so runs are deterministic up to claim races.
///
/// Work is partitioned by *degree sum*, not vertex count: the frontier
/// is pre-split into contiguous ranges of roughly equal total degree so
/// one hub vertex cannot serialize a whole rayon chunk (the
/// degree-aware partitioning half of the GAP frontier treatment).
pub fn par_frontier_expand<G, F>(g: &G, frontier: &[VertexId], claim: F) -> Vec<VertexId>
where
    G: Adjacency,
    F: Fn(VertexId, VertexId) -> bool + Send + Sync,
{
    let chunks = degree_chunks(g, frontier, rayon::current_num_threads() * 4);
    chunks
        .par_iter()
        .flat_map_iter(|&(s, e)| {
            let claim = &claim;
            frontier[s..e]
                .iter()
                .flat_map(move |&u| g.neighbors(u).filter(move |&v| claim(u, v)))
        })
        .collect()
}

/// Split `frontier` into at most `max_chunks` contiguous index ranges of
/// roughly equal total out-degree. Ranges tile the slice in order, so
/// chunked parallel iteration preserves sequential output order.
pub fn degree_chunks<G: Adjacency>(
    g: &G,
    frontier: &[VertexId],
    max_chunks: usize,
) -> Vec<(usize, usize)> {
    let max_chunks = max_chunks.max(1);
    if frontier.is_empty() {
        return Vec::new();
    }
    let total: u64 = frontier.iter().map(|&v| g.degree(v) as u64 + 1).sum();
    let per_chunk = total.div_ceil(max_chunks as u64).max(1);
    let mut chunks = Vec::with_capacity(max_chunks);
    let (mut start, mut acc) = (0usize, 0u64);
    for (i, &v) in frontier.iter().enumerate() {
        acc += g.degree(v) as u64 + 1;
        if acc >= per_chunk {
            chunks.push((start, i + 1));
            start = i + 1;
            acc = 0;
        }
    }
    if start < frontier.len() {
        chunks.push((start, frontier.len()));
    }
    chunks
}

/// Sum of out-degrees over `frontier`, in parallel — the number of edges
/// one expansion level will examine (used both for direction switching
/// and for edge-traffic accounting).
pub fn frontier_degree_sum<G: Adjacency>(g: &G, frontier: &[VertexId]) -> usize {
    frontier.par_iter().map(|&v| g.degree(v)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::CsrGraph;

    #[test]
    fn frontier_expand_discovers_neighbors() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let g = CsrGraph::from_edges_undirected(6, &gen::star(6));
        let seen: Vec<AtomicBool> = (0..6).map(|_| AtomicBool::new(false)).collect();
        seen[0].store(true, Ordering::Relaxed);
        let next = par_frontier_expand(&g, &[0], |_, v| {
            !seen[v as usize].swap(true, Ordering::Relaxed)
        });
        let mut sorted = next.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn degree_chunks_cover_in_order() {
        // Star: vertex 0 has degree 9, leaves degree 1.
        let edges: Vec<_> = (1..10).flat_map(|v| [(0, v), (v, 0)]).collect();
        let g = CsrGraph::from_edges(10, &edges);
        let frontier: Vec<VertexId> = (0..10).collect();
        let chunks = degree_chunks(&g, &frontier, 4);
        assert!(!chunks.is_empty() && chunks.len() <= 4);
        let mut covered = Vec::new();
        let mut prev_end = 0;
        for &(s, e) in &chunks {
            assert_eq!(s, prev_end, "chunks must tile the frontier");
            assert!(e > s);
            prev_end = e;
            covered.extend_from_slice(&frontier[s..e]);
        }
        assert_eq!(prev_end, frontier.len());
        assert_eq!(covered, frontier);
        assert!(degree_chunks(&g, &[], 4).is_empty());
    }

    #[test]
    fn degree_sums() {
        let g = CsrGraph::from_edges_undirected(5, &gen::path(5));
        assert_eq!(frontier_degree_sum(&g, &[0, 2]), 3);
        // Sum of out-degrees equals the directed edge count.
        assert_eq!(frontier_degree_sum(&g, &[0, 1, 2, 3, 4]), g.num_edges());
    }
}
